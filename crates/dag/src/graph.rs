//! A self-contained weighted directed acyclic graph.
//!
//! [`Dag`] stores the precedence structure `G_i = (V_i, E_i)` of a sporadic
//! DAG task: each vertex carries a worst-case execution time (WCET), each
//! directed edge `(v, w)` requires `v` to complete before `w` may start.
//!
//! The container is immutable once built; construct it through [`DagBuilder`],
//! which rejects self-loops, duplicate edges and cycles. Vertices are indexed
//! densely by [`VertexId`] in insertion order, which makes downstream
//! schedulers trivially array-addressable.
//!
//! The algorithms the paper relies on are provided directly:
//!
//! * [`Dag::topological_order`] — Kahn's algorithm, `O(|V| + |E|)`;
//! * [`Dag::longest_chain`] — `len_i`, the longest WCET-weighted chain, by
//!   dynamic programming over a topological order (linear time, exactly as
//!   the paper describes in Section II);
//! * [`Dag::volume`] — `vol_i`, the sum of all WCETs;
//! * reachability, sources/sinks, and DOT export for debugging.

use core::fmt;

use serde::{DeError, Deserialize, Deserializer, Serialize};

use crate::error::GraphBuildError;
use crate::time::Duration;

/// A dense index identifying a vertex (a sequential *job*) within one DAG.
///
/// Identifiers are only meaningful relative to the [`Dag`] that produced
/// them; they index `0..dag.vertex_count()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct VertexId(pub(crate) u32);

impl VertexId {
    /// The dense index of this vertex.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a vertex id from a dense index.
    ///
    /// Only ids in `0..dag.vertex_count()` are valid for a given DAG; using
    /// an out-of-range id with that DAG's accessors panics.
    #[must_use]
    pub const fn from_index(index: usize) -> VertexId {
        VertexId(index as u32)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An immutable weighted DAG: the precedence graph of one sporadic DAG task.
///
/// # Examples
///
/// A three-vertex fork (`a → b`, `a → c`):
///
/// ```
/// use fedsched_dag::graph::DagBuilder;
/// use fedsched_dag::time::Duration;
///
/// # fn main() -> Result<(), fedsched_dag::error::GraphBuildError> {
/// let mut b = DagBuilder::new();
/// let a = b.add_vertex(Duration::new(2));
/// let x = b.add_vertex(Duration::new(3));
/// let y = b.add_vertex(Duration::new(1));
/// b.add_edge(a, x)?;
/// b.add_edge(a, y)?;
/// let dag = b.build()?;
/// assert_eq!(dag.volume(), Duration::new(6));
/// assert_eq!(dag.longest_chain().length, Duration::new(5)); // a → x
/// # Ok(())
/// # }
/// ```
/// Adjacency is stored as a CSR-style arena: one flat `targets` array per
/// direction, sliced by `offsets[v]..offsets[v + 1]`. Repeated traversals
/// (the List-Scheduling kernel, chain DP, reachability) walk contiguous
/// memory instead of chasing one heap allocation per vertex, and per-vertex
/// slices stay order-preserving: targets appear in edge-insertion order,
/// exactly as the former nested `Vec<Vec<VertexId>>` layout stored them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dag {
    wcets: Vec<Duration>,
    /// `succ_offsets[v]..succ_offsets[v + 1]` indexes `succ_targets`.
    succ_offsets: Vec<u32>,
    succ_targets: Vec<VertexId>,
    /// `pred_offsets[v]..pred_offsets[v + 1]` indexes `pred_targets`.
    pred_offsets: Vec<u32>,
    pred_targets: Vec<VertexId>,
    /// A topological order, computed once at build time.
    topo: Vec<VertexId>,
}

/// The longest WCET-weighted chain of a DAG (`len_i` in the paper), together
/// with one witnessing path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Chain {
    /// Sum of the WCETs of the vertices on the chain.
    pub length: Duration,
    /// The vertices of one longest chain, in precedence order.
    pub vertices: Vec<VertexId>,
}

impl Dag {
    /// Builds a single-vertex DAG (the degenerate case of Example 2 in the
    /// paper: one sequential job).
    #[must_use]
    pub fn single_vertex(wcet: Duration) -> Dag {
        let mut b = DagBuilder::new();
        b.add_vertex(wcet);
        b.build().expect("a single vertex cannot form a cycle")
    }

    /// Number of vertices `|V|`.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.wcets.len()
    }

    /// Number of directed edges `|E|`.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.succ_targets.len()
    }

    /// Iterator over all vertex ids, in dense index order.
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = VertexId> + '_ {
        (0..self.wcets.len()).map(|i| VertexId(i as u32))
    }

    /// Iterator over all edges `(from, to)`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices()
            .flat_map(move |v| self.successors(v).iter().map(move |&w| (v, w)))
    }

    /// The WCET `e_v` of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this DAG.
    #[must_use]
    pub fn wcet(&self, v: VertexId) -> Duration {
        self.wcets[v.index()]
    }

    /// All WCETs, indexed by [`VertexId::index`].
    #[must_use]
    pub fn wcets(&self) -> &[Duration] {
        &self.wcets
    }

    /// Direct successors of `v` (vertices that must wait for `v`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this DAG.
    #[must_use]
    pub fn successors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.succ_offsets[v.index()] as usize;
        let hi = self.succ_offsets[v.index() + 1] as usize;
        &self.succ_targets[lo..hi]
    }

    /// Direct predecessors of `v` (vertices `v` must wait for).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this DAG.
    #[must_use]
    pub fn predecessors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.pred_offsets[v.index()] as usize;
        let hi = self.pred_offsets[v.index() + 1] as usize;
        &self.pred_targets[lo..hi]
    }

    /// In-degree of `v`.
    #[must_use]
    pub fn in_degree(&self, v: VertexId) -> usize {
        (self.pred_offsets[v.index() + 1] - self.pred_offsets[v.index()]) as usize
    }

    /// Out-degree of `v`.
    #[must_use]
    pub fn out_degree(&self, v: VertexId) -> usize {
        (self.succ_offsets[v.index() + 1] - self.succ_offsets[v.index()]) as usize
    }

    /// Vertices with no predecessors.
    #[must_use]
    pub fn sources(&self) -> Vec<VertexId> {
        self.vertices()
            .filter(|&v| self.in_degree(v) == 0)
            .collect()
    }

    /// Vertices with no successors.
    #[must_use]
    pub fn sinks(&self) -> Vec<VertexId> {
        self.vertices()
            .filter(|&v| self.out_degree(v) == 0)
            .collect()
    }

    /// A topological order of the vertices (every edge goes forward in it).
    ///
    /// The order is computed once at build time and is deterministic:
    /// Kahn's algorithm with a FIFO frontier seeded in index order.
    #[must_use]
    pub fn topological_order(&self) -> &[VertexId] {
        &self.topo
    }

    /// Total WCET `vol_i = Σ_v e_v` of one dag-job (paper Section II).
    ///
    /// Computed in time linear in `|V|`.
    #[must_use]
    pub fn volume(&self) -> Duration {
        self.wcets.iter().copied().sum()
    }

    /// The longest WCET-weighted chain `len_i` with a witnessing path
    /// (paper Section II): topological order + dynamic programming, so
    /// `O(|V| + |E|)`.
    ///
    /// For an empty DAG the chain has zero length and no vertices.
    #[must_use]
    pub fn longest_chain(&self) -> Chain {
        let n = self.vertex_count();
        if n == 0 {
            return Chain {
                length: Duration::ZERO,
                vertices: Vec::new(),
            };
        }
        // dist[v] = length of the longest chain ending at v (inclusive).
        let mut dist = vec![Duration::ZERO; n];
        let mut pred: Vec<Option<VertexId>> = vec![None; n];
        for &v in &self.topo {
            let best_in = self
                .predecessors(v)
                .iter()
                .copied()
                .max_by_key(|p| dist[p.index()]);
            let base = match best_in {
                Some(p) => {
                    pred[v.index()] = Some(p);
                    dist[p.index()]
                }
                None => Duration::ZERO,
            };
            dist[v.index()] = base + self.wcet(v);
        }
        let end = self
            .vertices()
            .max_by_key(|v| dist[v.index()])
            .expect("non-empty DAG");
        let mut vertices = vec![end];
        let mut cur = end;
        while let Some(p) = pred[cur.index()] {
            vertices.push(p);
            cur = p;
        }
        vertices.reverse();
        Chain {
            length: dist[end.index()],
            vertices,
        }
    }

    /// Earliest possible start time of each vertex assuming unlimited
    /// processors: the longest chain length strictly *before* the vertex.
    ///
    /// Useful as a per-vertex lower bound for schedulers and as the infinite-
    /// processor makespan profile.
    #[must_use]
    pub fn earliest_starts(&self) -> Vec<Duration> {
        let n = self.vertex_count();
        let mut est = vec![Duration::ZERO; n];
        for &v in &self.topo {
            let ready = self
                .predecessors(v)
                .iter()
                .map(|p| est[p.index()] + self.wcet(*p))
                .max()
                .unwrap_or(Duration::ZERO);
            est[v.index()] = ready;
        }
        est
    }

    /// Returns `true` if `to` is reachable from `from` by a directed path
    /// (including `from == to`).
    ///
    /// Breadth-first search, `O(|V| + |E|)`.
    ///
    /// # Panics
    ///
    /// Panics if either id is not a vertex of this DAG.
    #[must_use]
    pub fn is_reachable(&self, from: VertexId, to: VertexId) -> bool {
        assert!(to.index() < self.vertex_count(), "vertex out of range");
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.vertex_count()];
        let mut queue = vec![from];
        seen[from.index()] = true;
        while let Some(v) = queue.pop() {
            for &w in self.successors(v) {
                if w == to {
                    return true;
                }
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    queue.push(w);
                }
            }
        }
        false
    }

    /// The set of all ancestor vertices of `v` (excluding `v`).
    #[must_use]
    pub fn ancestors(&self, v: VertexId) -> Vec<VertexId> {
        let mut seen = vec![false; self.vertex_count()];
        let mut stack = vec![v];
        while let Some(x) = stack.pop() {
            for &p in self.predecessors(x) {
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        self.vertices().filter(|w| seen[w.index()]).collect()
    }

    /// Renders the DAG in Graphviz DOT syntax; vertices are labelled with
    /// their WCETs as in the paper's Figure 1.
    #[must_use]
    pub fn to_dot(&self, name: &str) -> String {
        use core::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "digraph {name} {{");
        let _ = writeln!(s, "  rankdir=LR;");
        for v in self.vertices() {
            let _ = writeln!(
                s,
                "  {} [label=\"{} ({})\", shape=circle];",
                v.index(),
                v,
                self.wcet(v)
            );
        }
        for (a, b) in self.edges() {
            let _ = writeln!(s, "  {} -> {};", a.index(), b.index());
        }
        s.push_str("}\n");
        s
    }
}

/// Incremental builder for [`Dag`]; the only way to construct one.
///
/// Rejects self-loops and duplicate edges eagerly, and cycles at
/// [`DagBuilder::build`] time.
#[derive(Debug, Clone, Default)]
pub struct DagBuilder {
    wcets: Vec<Duration>,
    edges: Vec<(VertexId, VertexId)>,
}

impl DagBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> DagBuilder {
        DagBuilder::default()
    }

    /// Creates a builder pre-sized for `vertices` vertices.
    #[must_use]
    pub fn with_capacity(vertices: usize) -> DagBuilder {
        DagBuilder {
            wcets: Vec::with_capacity(vertices),
            edges: Vec::new(),
        }
    }

    /// Adds a vertex with the given WCET and returns its id.
    pub fn add_vertex(&mut self, wcet: Duration) -> VertexId {
        let id = VertexId(self.wcets.len() as u32);
        self.wcets.push(wcet);
        id
    }

    /// Adds several vertices at once, returning their ids in order.
    pub fn add_vertices<I>(&mut self, wcets: I) -> Vec<VertexId>
    where
        I: IntoIterator<Item = Duration>,
    {
        wcets.into_iter().map(|w| self.add_vertex(w)).collect()
    }

    /// Adds the precedence edge `from → to`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphBuildError::UnknownVertex`] if either endpoint was not
    /// created by this builder, [`GraphBuildError::SelfLoop`] if
    /// `from == to`, and [`GraphBuildError::DuplicateEdge`] if the edge was
    /// already added.
    pub fn add_edge(&mut self, from: VertexId, to: VertexId) -> Result<(), GraphBuildError> {
        let n = self.wcets.len() as u32;
        if from.0 >= n || to.0 >= n {
            return Err(GraphBuildError::UnknownVertex {
                vertex: if from.0 >= n { from } else { to },
            });
        }
        if from == to {
            return Err(GraphBuildError::SelfLoop { vertex: from });
        }
        if self.edges.contains(&(from, to)) {
            return Err(GraphBuildError::DuplicateEdge { from, to });
        }
        self.edges.push((from, to));
        Ok(())
    }

    /// Number of vertices added so far.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.wcets.len()
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphBuildError::Cycle`] if the added edges form a directed
    /// cycle.
    pub fn build(self) -> Result<Dag, GraphBuildError> {
        let n = self.wcets.len();
        u32::try_from(self.edges.len()).expect("edge count exceeds u32 range");
        // Counting sort of the edge list into both CSR arenas. The fill is
        // stable, so each per-vertex slice lists its targets in
        // edge-insertion order — the same order the nested-Vec layout
        // produced (longest-chain tie-breaking observes it).
        let mut succ_offsets = vec![0u32; n + 1];
        let mut pred_offsets = vec![0u32; n + 1];
        for &(a, b) in &self.edges {
            succ_offsets[a.index() + 1] += 1;
            pred_offsets[b.index() + 1] += 1;
        }
        for i in 0..n {
            succ_offsets[i + 1] += succ_offsets[i];
            pred_offsets[i + 1] += pred_offsets[i];
        }
        let mut succ_cursor: Vec<u32> = succ_offsets[..n].to_vec();
        let mut pred_cursor: Vec<u32> = pred_offsets[..n].to_vec();
        let mut succ_targets = vec![VertexId(0); self.edges.len()];
        let mut pred_targets = vec![VertexId(0); self.edges.len()];
        for &(a, b) in &self.edges {
            succ_targets[succ_cursor[a.index()] as usize] = b;
            succ_cursor[a.index()] += 1;
            pred_targets[pred_cursor[b.index()] as usize] = a;
            pred_cursor[b.index()] += 1;
        }
        // Kahn's algorithm; deterministic FIFO order.
        let mut in_deg: Vec<u32> = (0..n)
            .map(|i| pred_offsets[i + 1] - pred_offsets[i])
            .collect();
        let mut frontier: std::collections::VecDeque<VertexId> = (0..n)
            .filter(|&i| in_deg[i] == 0)
            .map(|i| VertexId(i as u32))
            .collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(v) = frontier.pop_front() {
            topo.push(v);
            let lo = succ_offsets[v.index()] as usize;
            let hi = succ_offsets[v.index() + 1] as usize;
            for &w in &succ_targets[lo..hi] {
                in_deg[w.index()] -= 1;
                if in_deg[w.index()] == 0 {
                    frontier.push_back(w);
                }
            }
        }
        if topo.len() != n {
            return Err(GraphBuildError::Cycle);
        }
        Ok(Dag {
            wcets: self.wcets,
            succ_offsets,
            succ_targets,
            pred_offsets,
            pred_targets,
            topo,
        })
    }
}

/// The serialized form of [`Dag`] is frozen to the shape the former
/// nested-adjacency layout derived: `{wcets, successors, predecessors,
/// edge_count, topo}` with per-vertex target lists. Snapshots, WAL records
/// and wire requests written before the CSR refactor decode unchanged, and
/// re-serialization stays byte-identical.
impl Serialize for Dag {
    fn serialize(&self, out: &mut String) {
        out.push_str("{\"wcets\":");
        self.wcets.serialize(out);
        out.push_str(",\"successors\":");
        write_lists(out, &self.succ_offsets, &self.succ_targets);
        out.push_str(",\"predecessors\":");
        write_lists(out, &self.pred_offsets, &self.pred_targets);
        out.push_str(",\"edge_count\":");
        self.edge_count().serialize(out);
        out.push_str(",\"topo\":");
        self.topo.serialize(out);
        out.push('}');
    }
}

/// One CSR arena as nested per-vertex lists.
fn write_lists(out: &mut String, offsets: &[u32], targets: &[VertexId]) {
    out.push('[');
    for (v, bounds) in offsets.windows(2).enumerate() {
        if v > 0 {
            out.push(',');
        }
        targets[bounds[0] as usize..bounds[1] as usize].serialize(out);
    }
    out.push(']');
}

/// Reads a list of vertex ids, reserving `capacity` up front.
fn read_ids(de: &mut Deserializer<'_>, capacity: usize) -> Result<Vec<VertexId>, DeError> {
    de.begin_array("Vec")?;
    let mut ids = Vec::with_capacity(capacity);
    while de.next_element()? {
        ids.push(VertexId::deserialize(de)?);
    }
    Ok(ids)
}

/// Reads nested per-vertex lists straight into one CSR arena, reserving
/// room for `vertices` lists and `edges` targets.
fn read_lists(
    de: &mut Deserializer<'_>,
    vertices: usize,
    edges: usize,
) -> Result<(Vec<u32>, Vec<VertexId>), DeError> {
    de.begin_array("Vec")?;
    let mut offsets = Vec::with_capacity(vertices + 1);
    offsets.push(0u32);
    let mut targets = Vec::with_capacity(edges);
    while de.next_element()? {
        de.begin_array("Vec")?;
        while de.next_element()? {
            targets.push(VertexId::deserialize(de)?);
        }
        let end = u32::try_from(targets.len())
            .map_err(|_| DeError::custom("Dag edge count exceeds u32 range"))?;
        offsets.push(end);
    }
    Ok((offsets, targets))
}

/// Decoding checks everything [`DagBuilder::build`] guarantees, so a
/// decoded graph is as sound as a built one: every id in range, no self or
/// duplicate edge, predecessor lists that mirror the successor lists, an
/// `edge_count` that matches them, and a `topo` that is a topological
/// order (so the graph is acyclic). Unknown keys are skipped and the first
/// occurrence of a repeated key wins.
impl Deserialize for Dag {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
        let mut wcets: Option<Vec<Duration>> = None;
        let mut succ: Option<(Vec<u32>, Vec<VertexId>)> = None;
        let mut pred: Option<(Vec<u32>, Vec<VertexId>)> = None;
        let mut edge_count: Option<usize> = None;
        let mut topo: Option<Vec<VertexId>> = None;
        de.begin_object("Dag")?;
        while let Some(key) = de.next_key()? {
            let slot = match key {
                "wcets" => 0,
                "successors" => 1,
                "predecessors" => 2,
                "edge_count" => 3,
                "topo" => 4,
                _ => 5,
            };
            // Size hints from the fields read so far (ours come first).
            let n = wcets.as_ref().map_or(0, Vec::len);
            let edges = succ.as_ref().map_or(0, |(_, targets)| targets.len());
            match slot {
                0 if wcets.is_none() => wcets = Some(Vec::deserialize(de)?),
                1 if succ.is_none() => succ = Some(read_lists(de, n, 0)?),
                2 if pred.is_none() => pred = Some(read_lists(de, n, edges)?),
                3 if edge_count.is_none() => edge_count = Some(usize::deserialize(de)?),
                4 if topo.is_none() => topo = Some(read_ids(de, n)?),
                _ => de.skip_value()?,
            }
        }
        let missing = |field| DeError::missing_field(field, "Dag");
        Dag::checked(
            wcets.ok_or_else(|| missing("wcets"))?,
            succ.ok_or_else(|| missing("successors"))?,
            pred.ok_or_else(|| missing("predecessors"))?,
            edge_count.ok_or_else(|| missing("edge_count"))?,
            topo.ok_or_else(|| missing("topo"))?,
        )
    }
}

impl Dag {
    /// Assembles a decoded graph after checking it in one `O(|V| + |E|)`
    /// pass with three scratch arrays.
    fn checked(
        wcets: Vec<Duration>,
        (succ_offsets, succ_targets): (Vec<u32>, Vec<VertexId>),
        (pred_offsets, pred_targets): (Vec<u32>, Vec<VertexId>),
        edge_count: usize,
        topo: Vec<VertexId>,
    ) -> Result<Dag, DeError> {
        let n = wcets.len();
        // Vertex ids are `u32`, so `u32::MAX` is free as a "none" marker.
        if u32::try_from(n).is_err() {
            return Err(DeError::custom("Dag vertex count exceeds u32 range"));
        }
        if succ_offsets.len() != n + 1 || pred_offsets.len() != n + 1 || topo.len() != n {
            return Err(DeError::custom(
                "Dag adjacency/topo length disagrees with vertex count",
            ));
        }
        if succ_targets.len() != edge_count || pred_targets.len() != edge_count {
            return Err(DeError::custom("Dag edge_count disagrees with adjacency"));
        }
        let in_range = |ids: &[VertexId]| ids.iter().all(|id| id.index() < n);
        if !in_range(&succ_targets) || !in_range(&pred_targets) || !in_range(&topo) {
            return Err(DeError::custom("Dag vertex id out of range"));
        }
        let invalid = |e: GraphBuildError| DeError::custom(format!("invalid Dag: {e}"));
        let not_topological = || DeError::custom("Dag topo is not a topological order");

        // `topo` must list every vertex once, and every edge must point
        // forward in it — which also proves the graph acyclic.
        let mut position = vec![u32::MAX; n];
        for (i, v) in topo.iter().enumerate() {
            if position[v.index()] != u32::MAX {
                return Err(not_topological());
            }
            position[v.index()] = i as u32;
        }
        let successors =
            |v: usize| &succ_targets[succ_offsets[v] as usize..succ_offsets[v + 1] as usize];
        let mut cursor = vec![0u32; n];
        for v in 0..n {
            for &w in successors(v) {
                if w.index() == v {
                    return Err(invalid(GraphBuildError::SelfLoop { vertex: w }));
                }
                if position[v] > position[w.index()] {
                    return Err(not_topological());
                }
                cursor[w.index()] += 1;
            }
        }
        // The predecessor lists must hold the transposed successor lists
        // (in any order). Transpose into `mirror`, sliced like them.
        let mismatch = || DeError::custom("Dag predecessors do not mirror successors");
        for w in 0..n {
            if cursor[w] != pred_offsets[w + 1] - pred_offsets[w] {
                return Err(mismatch());
            }
            cursor[w] = pred_offsets[w];
        }
        let mut mirror = vec![VertexId(0); edge_count];
        for v in 0..n {
            for &w in successors(v) {
                mirror[cursor[w.index()] as usize] = VertexId(v as u32);
                cursor[w.index()] += 1;
            }
        }
        // Per vertex `w`, stamp its true predecessors with `w`, then
        // consume one stamp per listed predecessor: a repeated edge stamps
        // twice, a listed predecessor that is missing or repeated finds no
        // stamp. Every stamp is consumed before the next `w`.
        let stamp = &mut position;
        stamp.fill(u32::MAX);
        for w in 0..n {
            let range = pred_offsets[w] as usize..pred_offsets[w + 1] as usize;
            let w_id = VertexId(w as u32);
            for &v in &mirror[range.clone()] {
                if stamp[v.index()] == w_id.0 {
                    return Err(invalid(GraphBuildError::DuplicateEdge {
                        from: v,
                        to: w_id,
                    }));
                }
                stamp[v.index()] = w_id.0;
            }
            for &v in &pred_targets[range] {
                if stamp[v.index()] != w_id.0 {
                    return Err(mismatch());
                }
                stamp[v.index()] = u32::MAX;
            }
        }
        Ok(Dag {
            wcets,
            succ_offsets,
            succ_targets,
            pred_offsets,
            pred_targets,
            topo,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        // a → b → d, a → c → d
        let mut b = DagBuilder::new();
        let vs = b.add_vertices([1, 2, 3, 4].map(Duration::new));
        b.add_edge(vs[0], vs[1]).unwrap();
        b.add_edge(vs[0], vs[2]).unwrap();
        b.add_edge(vs[1], vs[3]).unwrap();
        b.add_edge(vs[2], vs[3]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_basic_counts() {
        let d = diamond();
        assert_eq!(d.vertex_count(), 4);
        assert_eq!(d.edge_count(), 4);
        assert_eq!(d.edges().count(), 4);
    }

    #[test]
    fn volume_and_longest_chain() {
        let d = diamond();
        assert_eq!(d.volume(), Duration::new(10));
        let chain = d.longest_chain();
        // a → c → d: 1 + 3 + 4 = 8.
        assert_eq!(chain.length, Duration::new(8));
        assert_eq!(chain.vertices, vec![VertexId(0), VertexId(2), VertexId(3)]);
    }

    #[test]
    fn chain_of_empty_dag() {
        let d = DagBuilder::new().build().unwrap();
        let chain = d.longest_chain();
        assert_eq!(chain.length, Duration::ZERO);
        assert!(chain.vertices.is_empty());
        assert_eq!(d.volume(), Duration::ZERO);
    }

    #[test]
    fn single_vertex() {
        let d = Dag::single_vertex(Duration::new(7));
        assert_eq!(d.vertex_count(), 1);
        assert_eq!(d.volume(), Duration::new(7));
        assert_eq!(d.longest_chain().length, Duration::new(7));
        assert_eq!(d.sources(), d.sinks());
    }

    #[test]
    fn sources_and_sinks() {
        let d = diamond();
        assert_eq!(d.sources(), vec![VertexId(0)]);
        assert_eq!(d.sinks(), vec![VertexId(3)]);
    }

    #[test]
    fn topological_order_respects_edges() {
        let d = diamond();
        let pos: Vec<usize> = {
            let mut p = vec![0; d.vertex_count()];
            for (i, v) in d.topological_order().iter().enumerate() {
                p[v.index()] = i;
            }
            p
        };
        for (a, b) in d.edges() {
            assert!(pos[a.index()] < pos[b.index()]);
        }
    }

    #[test]
    fn reachability_and_ancestors() {
        let d = diamond();
        assert!(d.is_reachable(VertexId(0), VertexId(3)));
        assert!(!d.is_reachable(VertexId(1), VertexId(2)));
        assert!(d.is_reachable(VertexId(2), VertexId(2)));
        let a = d.ancestors(VertexId(3));
        assert_eq!(a, vec![VertexId(0), VertexId(1), VertexId(2)]);
        assert!(d.ancestors(VertexId(0)).is_empty());
    }

    #[test]
    fn earliest_starts() {
        let d = diamond();
        let est = d.earliest_starts();
        assert_eq!(est[0], Duration::ZERO);
        assert_eq!(est[1], Duration::new(1));
        assert_eq!(est[2], Duration::new(1));
        assert_eq!(est[3], Duration::new(4)); // after a → c
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = DagBuilder::new();
        let v = b.add_vertex(Duration::new(1));
        assert!(matches!(
            b.add_edge(v, v),
            Err(GraphBuildError::SelfLoop { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut b = DagBuilder::new();
        let x = b.add_vertex(Duration::new(1));
        let y = b.add_vertex(Duration::new(1));
        b.add_edge(x, y).unwrap();
        assert!(matches!(
            b.add_edge(x, y),
            Err(GraphBuildError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn rejects_unknown_vertex() {
        let mut b = DagBuilder::new();
        let x = b.add_vertex(Duration::new(1));
        assert!(matches!(
            b.add_edge(x, VertexId(9)),
            Err(GraphBuildError::UnknownVertex { .. })
        ));
    }

    #[test]
    fn rejects_cycle() {
        let mut b = DagBuilder::new();
        let x = b.add_vertex(Duration::new(1));
        let y = b.add_vertex(Duration::new(1));
        let z = b.add_vertex(Duration::new(1));
        b.add_edge(x, y).unwrap();
        b.add_edge(y, z).unwrap();
        b.add_edge(z, x).unwrap();
        assert!(matches!(b.build(), Err(GraphBuildError::Cycle)));
    }

    #[test]
    fn dot_export_mentions_every_vertex_and_edge() {
        let d = diamond();
        let dot = d.to_dot("g");
        assert!(dot.starts_with("digraph g {"));
        for v in d.vertices() {
            assert!(dot.contains(&format!("label=\"{} ({})\"", v, d.wcet(v))));
        }
        assert!(dot.contains("0 -> 1;"));
        assert!(dot.contains("2 -> 3;"));
    }
}

/// Structural statistics of a DAG, as reported by tooling (`fedsched info`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DagStats {
    /// Vertex count `|V|`.
    pub vertices: usize,
    /// Edge count `|E|`.
    pub edges: usize,
    /// Total work `vol`.
    pub volume: Duration,
    /// Longest chain `len`.
    pub longest_chain: Duration,
    /// The *parallelism* `vol / len` — the average processor count the DAG
    /// can keep busy, and a lower bound on the processors needed to realise
    /// its critical-path makespan.
    pub parallelism: f64,
    /// The largest number of vertices simultaneously runnable in the
    /// infinite-processor (earliest-start) schedule — a cheap upper-bound
    /// witness for how wide the DAG ever gets.
    pub peak_width: usize,
}

impl Dag {
    /// Computes the summary statistics of this DAG.
    ///
    /// `peak_width` is measured on the infinite-processor earliest-start
    /// schedule: the maximum, over time, of concurrently executing
    /// vertices. (The true maximum antichain can be larger; this is the
    /// width that actually materialises when nothing ever waits for a
    /// processor.)
    #[must_use]
    pub fn stats(&self) -> DagStats {
        let volume = self.volume();
        let longest_chain = self.longest_chain().length;
        let parallelism = if longest_chain.is_zero() {
            0.0
        } else {
            volume.ticks() as f64 / longest_chain.ticks() as f64
        };
        // Sweep the earliest-start schedule's start/finish events.
        let est = self.earliest_starts();
        let mut events: Vec<(u64, i64)> = Vec::with_capacity(2 * self.vertex_count());
        for v in self.vertices() {
            let s = est[v.index()].ticks();
            events.push((s, 1));
            events.push((s + self.wcet(v).ticks(), -1));
        }
        // Ends sort before starts at equal instants (half-open intervals).
        events.sort_by_key(|&(t, d)| (t, d));
        let mut cur = 0i64;
        let mut peak = 0i64;
        for (_, d) in events {
            cur += d;
            peak = peak.max(cur);
        }
        DagStats {
            vertices: self.vertex_count(),
            edges: self.edge_count(),
            volume,
            longest_chain,
            parallelism,
            peak_width: usize::try_from(peak).unwrap_or(0),
        }
    }

    /// The transitive *closure* as a boolean reachability matrix:
    /// `matrix[a][b]` is `true` iff `b` is reachable from `a` by a
    /// non-empty path.
    ///
    /// `O(|V| · |E|)` by propagating successor sets in reverse topological
    /// order.
    #[must_use]
    pub fn transitive_closure(&self) -> Vec<Vec<bool>> {
        let n = self.vertex_count();
        let mut reach = vec![vec![false; n]; n];
        for &v in self.topo.iter().rev() {
            // A row borrowed twice would alienate the borrow checker; build
            // the row first, then store it.
            let mut row = vec![false; n];
            for &s in self.successors(v) {
                row[s.index()] = true;
                for b in 0..n {
                    if reach[s.index()][b] {
                        row[b] = true;
                    }
                }
            }
            reach[v.index()] = row;
        }
        reach
    }

    /// The transitive *reduction*: the unique minimal DAG with the same
    /// reachability relation (same vertices and WCETs, redundant edges
    /// removed).
    ///
    /// An edge `(a, b)` is redundant iff some other successor of `a`
    /// reaches `b`. Precedence-constrained scheduling semantics are
    /// invariant under this transformation, which makes it a useful
    /// normalisation for generated workloads (and a good property-test
    /// target: schedules of a DAG and its reduction coincide).
    #[must_use]
    pub fn transitive_reduction(&self) -> Dag {
        let closure = self.transitive_closure();
        let mut b = DagBuilder::with_capacity(self.vertex_count());
        let ids = b.add_vertices(self.wcets().iter().copied());
        for (a, c) in self.edges() {
            let redundant = self
                .successors(a)
                .iter()
                .any(|&mid| mid != c && closure[mid.index()][c.index()]);
            if !redundant {
                b.add_edge(ids[a.index()], ids[c.index()])
                    .expect("subset of a valid edge set");
            }
        }
        b.build().expect("subgraph of a DAG is a DAG")
    }
}

#[cfg(test)]
mod structure_tests {
    use super::*;

    /// a → b → c plus the redundant shortcut a → c; a → d in parallel.
    fn shortcut() -> Dag {
        let mut b = DagBuilder::new();
        let v = b.add_vertices([1, 2, 3, 4].map(Duration::new));
        b.add_edge(v[0], v[1]).unwrap();
        b.add_edge(v[1], v[2]).unwrap();
        b.add_edge(v[0], v[2]).unwrap(); // redundant
        b.add_edge(v[0], v[3]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn closure_matches_reachability() {
        let d = shortcut();
        let c = d.transitive_closure();
        for a in d.vertices() {
            for b in d.vertices() {
                let expected = a != b && d.is_reachable(a, b);
                assert_eq!(c[a.index()][b.index()], expected, "{a} -> {b}");
            }
        }
    }

    #[test]
    fn reduction_removes_exactly_the_shortcut() {
        let d = shortcut();
        let r = d.transitive_reduction();
        assert_eq!(r.edge_count(), 3);
        assert_eq!(r.vertex_count(), 4);
        // Reachability is preserved.
        assert_eq!(d.transitive_closure(), r.transitive_closure());
        // Scheduling quantities are untouched.
        assert_eq!(d.volume(), r.volume());
        assert_eq!(d.longest_chain().length, r.longest_chain().length);
    }

    #[test]
    fn reduction_of_reduced_graph_is_identity() {
        let r = shortcut().transitive_reduction();
        let rr = r.transitive_reduction();
        assert_eq!(r.edge_count(), rr.edge_count());
        assert_eq!(r.transitive_closure(), rr.transitive_closure());
    }

    #[test]
    fn stats_of_shortcut_graph() {
        let d = shortcut();
        let s = d.stats();
        assert_eq!(s.vertices, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.volume, Duration::new(10));
        assert_eq!(s.longest_chain, Duration::new(6)); // a→b→c
        assert!((s.parallelism - 10.0 / 6.0).abs() < 1e-12);
        // EST: a[0,1), b[1,3), c[3,6), d[1,5) ⇒ peak 2 (b ∥ d).
        assert_eq!(s.peak_width, 2);
    }

    #[test]
    fn stats_edge_cases() {
        let empty = DagBuilder::new().build().unwrap();
        let s = empty.stats();
        assert_eq!(s.peak_width, 0);
        assert_eq!(s.parallelism, 0.0);
        let single = Dag::single_vertex(Duration::new(5));
        let s = single.stats();
        assert_eq!(s.peak_width, 1);
        assert_eq!(s.parallelism, 1.0);
        // Fully parallel: width = n.
        let mut b = DagBuilder::new();
        b.add_vertices([2, 2, 2].map(Duration::new));
        let par = b.build().unwrap();
        assert_eq!(par.stats().peak_width, 3);
        assert_eq!(par.stats().parallelism, 3.0);
    }
}
