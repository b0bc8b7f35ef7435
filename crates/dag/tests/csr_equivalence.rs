//! Equivalence of the CSR arena [`Dag`] with a naive nested-adjacency
//! model of the pre-refactor builder.
//!
//! The CSR layout changed how adjacency is *stored*, not what it *means*:
//! per-vertex successor and predecessor lists must keep their
//! edge-insertion order, Kahn's queue must visit the same vertices in the
//! same order, and the longest-chain DP must see the same neighbours.
//! These properties rebuild the old representation directly from the edge
//! script and compare every observable, plus the frozen serde wire shape.

use fedsched_dag::graph::{Dag, DagBuilder, VertexId};
use fedsched_dag::time::Duration;
use proptest::prelude::*;
use serde_json::Value;
use std::collections::VecDeque;

/// The retired representation, rebuilt verbatim from the same edge script:
/// nested adjacency vectors in edge-insertion order.
struct NaiveDag {
    wcets: Vec<Duration>,
    succ: Vec<Vec<usize>>,
    pred: Vec<Vec<usize>>,
}

impl NaiveDag {
    fn new(wcets: &[Duration], edges: &[(usize, usize)]) -> NaiveDag {
        let n = wcets.len();
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for &(from, to) in edges {
            succ[from].push(to);
            pred[to].push(from);
        }
        NaiveDag {
            wcets: wcets.to_vec(),
            succ,
            pred,
        }
    }

    /// Kahn's algorithm with a FIFO queue, exactly as the old builder ran
    /// it over its nested adjacency.
    fn topological_order(&self) -> Vec<usize> {
        let n = self.wcets.len();
        let mut indegree: Vec<usize> = (0..n).map(|v| self.pred[v].len()).collect();
        let mut queue: VecDeque<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &s in &self.succ[v] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    queue.push_back(s);
                }
            }
        }
        order
    }

    /// Longest-path DP over the topological order; returns `len(G)`.
    fn longest_chain_length(&self) -> u64 {
        let n = self.wcets.len();
        let mut dist = vec![0u64; n];
        let mut best = 0;
        for v in self.topological_order() {
            let tail: u64 = self.pred[v].iter().map(|&p| dist[p]).max().unwrap_or(0);
            dist[v] = tail + self.wcets[v].ticks();
            best = best.max(dist[v]);
        }
        best
    }
}

/// A WCET vector plus a forward-only edge script over it: the triangular
/// adjacency-flag encoding used by the dag property suite, kept as the
/// explicit `(from, to)` list so the naive model replays it verbatim.
fn arb_script() -> impl Strategy<Value = (Vec<Duration>, Vec<(usize, usize)>)> {
    (2usize..24).prop_flat_map(|n| {
        let wcets = prop::collection::vec(1u64..=20, n)
            .prop_map(|ws| ws.into_iter().map(Duration::new).collect::<Vec<_>>());
        let flags = prop::collection::vec(any::<bool>(), n * (n - 1) / 2);
        (wcets, flags).prop_map(move |(wcets, flags)| {
            let mut edges = Vec::new();
            let mut k = 0;
            for from in 0..n {
                for to in (from + 1)..n {
                    if flags[k] {
                        edges.push((from, to));
                    }
                    k += 1;
                }
            }
            (wcets, edges)
        })
    })
}

fn build_csr(wcets: &[Duration], edges: &[(usize, usize)]) -> Dag {
    let mut builder = DagBuilder::new();
    let vs = builder.add_vertices(wcets.iter().copied());
    for &(from, to) in edges {
        builder.add_edge(vs[from], vs[to]).unwrap();
    }
    builder.build().unwrap()
}

fn indices(vs: &[VertexId]) -> Vec<usize> {
    vs.iter().map(|v| v.index()).collect()
}

proptest! {
    #[test]
    fn csr_matches_naive_adjacency_and_degrees(
        (wcets, edges) in arb_script()
    ) {
        let dag = build_csr(&wcets, &edges);
        let naive = NaiveDag::new(&wcets, &edges);

        prop_assert_eq!(dag.vertex_count(), wcets.len());
        prop_assert_eq!(dag.edge_count(), edges.len());
        for v in dag.vertices() {
            let i = v.index();
            prop_assert_eq!(
                indices(dag.successors(v)),
                naive.succ[i].clone(),
                "successor slice of v{} must keep edge-insertion order", i
            );
            prop_assert_eq!(
                indices(dag.predecessors(v)),
                naive.pred[i].clone(),
                "predecessor slice of v{} must keep edge-insertion order", i
            );
            prop_assert_eq!(dag.out_degree(v), naive.succ[i].len());
            prop_assert_eq!(dag.in_degree(v), naive.pred[i].len());
        }
        let listed: Vec<(usize, usize)> =
            dag.edges().map(|(f, t)| (f.index(), t.index())).collect();
        let mut expected = edges.clone();
        expected.sort_by_key(|&(f, _)| f); // edges() groups by source vertex
        prop_assert_eq!(listed, expected);
    }

    #[test]
    fn csr_matches_naive_topo_and_critical_path(
        (wcets, edges) in arb_script()
    ) {
        let dag = build_csr(&wcets, &edges);
        let naive = NaiveDag::new(&wcets, &edges);

        prop_assert_eq!(
            indices(dag.topological_order()),
            naive.topological_order(),
            "Kahn FIFO order must be unchanged by the CSR layout"
        );

        let chain = dag.longest_chain();
        prop_assert_eq!(chain.length.ticks(), naive.longest_chain_length());
        // The witness must be a genuine chain realising that length.
        let total: u64 = chain.vertices.iter().map(|&v| dag.wcet(v).ticks()).sum();
        prop_assert_eq!(total, chain.length.ticks());
        for pair in chain.vertices.windows(2) {
            prop_assert!(
                dag.successors(pair[0]).contains(&pair[1]),
                "chain witness must follow edges"
            );
        }
    }

    #[test]
    fn serde_roundtrip_preserves_csr_and_wire_shape(
        (wcets, edges) in arb_script()
    ) {
        let dag = build_csr(&wcets, &edges);
        let json = serde_json::to_string(&dag).unwrap();
        let back: Dag = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &dag, "serde roundtrip must be lossless");

        // The wire format is frozen: the same five fields, in the same
        // order, with nested per-vertex adjacency lists.
        let value: Value = serde_json::from_str(&json).unwrap();
        let Value::Map(fields) = value else {
            return Err(TestCaseError::Fail("Dag must serialise as a map".into()));
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        prop_assert_eq!(
            keys,
            vec!["wcets", "successors", "predecessors", "edge_count", "topo"]
        );
        let naive = NaiveDag::new(&wcets, &edges);
        let Value::Seq(succ_lists) = &fields[1].1 else {
            return Err(TestCaseError::Fail("successors must be a list of lists".into()));
        };
        for (v, list) in succ_lists.iter().enumerate() {
            let Value::Seq(items) = list else {
                return Err(TestCaseError::Fail("per-vertex successors must be a list".into()));
            };
            let mut ids = Vec::with_capacity(items.len());
            for item in items {
                let Value::UInt(id) = item else {
                    return Err(TestCaseError::Fail("vertex ids serialise as integers".into()));
                };
                ids.push(*id as usize);
            }
            prop_assert_eq!(&ids, &naive.succ[v]);
        }
    }
}
