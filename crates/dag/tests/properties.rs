//! Property-based tests for the model substrate.

use fedsched_dag::graph::{Dag, DagBuilder, VertexId};
use fedsched_dag::rational::{gcd, Rational};
use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration;
use proptest::prelude::*;

/// Strategy: a random DAG with `n` vertices whose edges always go from a
/// lower to a higher index (hence acyclic by construction), with random
/// positive WCETs.
fn arb_dag(max_vertices: usize) -> impl Strategy<Value = Dag> {
    (1..=max_vertices)
        .prop_flat_map(|n| {
            (
                prop::collection::vec(1u64..=20, n),
                prop::collection::vec(any::<bool>(), n * (n - 1) / 2),
            )
        })
        .prop_map(|(wcets, edge_flags)| {
            let mut b = DagBuilder::new();
            let vs = b.add_vertices(wcets.into_iter().map(Duration::new));
            let mut k = 0;
            for i in 0..vs.len() {
                for j in (i + 1)..vs.len() {
                    if edge_flags[k] {
                        b.add_edge(vs[i], vs[j]).expect("forward edges are fresh");
                    }
                    k += 1;
                }
            }
            b.build().expect("forward-only edges cannot cycle")
        })
}

proptest! {
    /// The longest chain never exceeds the volume, and both are positive for
    /// non-empty DAGs with positive WCETs.
    #[test]
    fn chain_bounded_by_volume(dag in arb_dag(12)) {
        let chain = dag.longest_chain();
        prop_assert!(chain.length <= dag.volume());
        prop_assert!(chain.length > Duration::ZERO);
    }

    /// The witnessing chain is an actual path: consecutive vertices are
    /// connected by edges, and its WCETs sum to the reported length.
    #[test]
    fn chain_witness_is_a_real_path(dag in arb_dag(12)) {
        let chain = dag.longest_chain();
        let sum: Duration = chain.vertices.iter().map(|&v| dag.wcet(v)).sum();
        prop_assert_eq!(sum, chain.length);
        for w in chain.vertices.windows(2) {
            prop_assert!(dag.successors(w[0]).contains(&w[1]));
        }
    }

    /// No single-vertex chain beats the DP answer: every vertex's
    /// earliest-start + wcet is at most the longest chain length.
    #[test]
    fn earliest_starts_consistent_with_chain(dag in arb_dag(12)) {
        let est = dag.earliest_starts();
        let len = dag.longest_chain().length;
        for v in dag.vertices() {
            prop_assert!(est[v.index()] + dag.wcet(v) <= len);
        }
        // ... and the bound is tight for at least one vertex.
        let max = dag
            .vertices()
            .map(|v| est[v.index()] + dag.wcet(v))
            .max()
            .unwrap();
        prop_assert_eq!(max, len);
    }

    /// The topological order is a permutation respecting all edges.
    #[test]
    fn topological_order_is_valid(dag in arb_dag(12)) {
        let order = dag.topological_order();
        prop_assert_eq!(order.len(), dag.vertex_count());
        let mut pos = vec![usize::MAX; dag.vertex_count()];
        for (i, v) in order.iter().enumerate() {
            prop_assert_eq!(pos[v.index()], usize::MAX, "vertex repeated");
            pos[v.index()] = i;
        }
        for (a, b) in dag.edges() {
            prop_assert!(pos[a.index()] < pos[b.index()]);
        }
    }

    /// Reachability agrees with edge membership and is transitive along
    /// sampled triples.
    #[test]
    fn reachability_contains_edges(dag in arb_dag(10)) {
        for (a, b) in dag.edges() {
            prop_assert!(dag.is_reachable(a, b));
        }
        // Ancestors and reachability agree.
        for v in dag.vertices() {
            for a in dag.ancestors(v) {
                prop_assert!(dag.is_reachable(a, v));
            }
        }
    }

    /// Density ≥ utilization for constrained deadlines, with equality iff
    /// D = T.
    #[test]
    fn density_dominates_utilization(
        dag in arb_dag(8),
        d in 1u64..=100,
        extra in 0u64..=50,
    ) {
        let t = DagTask::new(dag, Duration::new(d), Duration::new(d + extra)).unwrap();
        prop_assert!(t.density() >= t.utilization());
        if extra == 0 {
            prop_assert_eq!(t.density(), t.utilization());
        }
    }

    /// Serialization round-trips through JSON.
    #[test]
    fn task_serde_roundtrip(dag in arb_dag(8), d in 1u64..=100, t in 1u64..=100) {
        let task = DagTask::new(dag, Duration::new(d), Duration::new(t)).unwrap();
        let json = serde_json::to_string(&task).unwrap();
        let back: DagTask = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(task, back);
    }
}

/// Tick counts across the whole positive `u64` range, both ends included.
fn arb_ticks() -> impl Strategy<Value = u64> {
    prop_oneof![
        1u64..=64,
        any::<u64>().prop_map(|t| t.max(1)),
        u64::MAX - 64..=u64::MAX,
    ]
}

proptest! {
    /// The integer density test `vol ≥ min(D, T)` is the exact `δ ≥ 1`,
    /// up to `u64::MAX` ticks and at the threshold itself.
    #[test]
    fn integer_density_test_matches_rational_density(
        wcet in arb_ticks(),
        d in arb_ticks(),
        t in arb_ticks(),
        tie in 0u8..4,
    ) {
        // Three cases in four put the volume on the threshold or one tick
        // either side of it.
        let min = d.min(t);
        let wcet = match tie {
            0 => min.saturating_sub(1).max(1),
            1 => min,
            2 => min.saturating_add(1),
            _ => wcet,
        };
        let task = DagTask::new(
            Dag::single_vertex(Duration::new(wcet)),
            Duration::new(d),
            Duration::new(t),
        )
        .unwrap();
        prop_assert_eq!(task.is_high_density(), task.density() >= Rational::ONE);
        prop_assert_eq!(task.is_low_density(), task.density() < Rational::ONE);
    }
}

proptest! {
    /// Rational arithmetic: field axioms on random small fractions.
    #[test]
    fn rational_field_axioms(
        a in -50i128..=50, b in 1i128..=50,
        c in -50i128..=50, d in 1i128..=50,
        e in -50i128..=50, f in 1i128..=50,
    ) {
        let x = Rational::new(a, b);
        let y = Rational::new(c, d);
        let z = Rational::new(e, f);
        prop_assert_eq!(x + y, y + x);
        prop_assert_eq!((x + y) + z, x + (y + z));
        prop_assert_eq!(x * y, y * x);
        prop_assert_eq!((x * y) * z, x * (y * z));
        prop_assert_eq!(x * (y + z), x * y + x * z);
        prop_assert_eq!(x + Rational::ZERO, x);
        prop_assert_eq!(x * Rational::ONE, x);
        prop_assert_eq!(x - x, Rational::ZERO);
        if !y.is_zero() {
            prop_assert_eq!((x / y) * y, x);
        }
    }

    /// Ordering is total and consistent with f64 on small fractions.
    #[test]
    fn rational_ordering_matches_f64(
        a in -50i128..=50, b in 1i128..=50,
        c in -50i128..=50, d in 1i128..=50,
    ) {
        let x = Rational::new(a, b);
        let y = Rational::new(c, d);
        let cmp = x.cmp(&y);
        let fcmp = x.to_f64().partial_cmp(&y.to_f64()).unwrap();
        prop_assert_eq!(cmp, fcmp);
    }

    /// ceil/floor bracket the value.
    #[test]
    fn rational_ceil_floor_bracket(a in -500i128..=500, b in 1i128..=50) {
        let x = Rational::new(a, b);
        prop_assert!(Rational::from_integer(x.floor()) <= x);
        prop_assert!(x <= Rational::from_integer(x.ceil()));
        prop_assert!(x.ceil() - x.floor() <= 1);
    }
}

/// The Euclid loop `Rational` normalised with before the binary `gcd`,
/// kept as the reference.
fn euclid_gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a.abs()
}

/// A `gcd` operand of either sign: zero, small, within 1000 of `u64::MAX`
/// on either side, across the `u64` loop's width boundary in
/// [2^63, 2^64 + 2^63], or anywhere up to `i128::MAX` in magnitude.
/// `i128::MIN` is left out: the reference's `%` overflows on it.
fn arb_gcd_operand() -> impl Strategy<Value = i128> {
    let near_u64_max = i128::from(u64::MAX);
    let magnitude = prop_oneof![
        Just(0i128),
        1i128..=1_000,
        (near_u64_max - 1_000)..=(near_u64_max + 1_000),
        (1i128 << 63)..=((1i128 << 64) + (1 << 63)),
        1i128..=i128::MAX,
    ];
    (magnitude, any::<bool>()).prop_map(|(m, negative)| if negative { -m } else { m })
}

proptest! {
    /// The binary `gcd` agrees with Euclid on raw operands and on operands
    /// sharing a factor (so that the answer is not almost always 1).
    #[test]
    fn binary_gcd_matches_euclid(
        a in arb_gcd_operand(),
        b in arb_gcd_operand(),
        factor in 1i128..=1 << 40,
    ) {
        prop_assert_eq!(gcd(a, b), euclid_gcd(a, b));
        prop_assert_eq!(gcd(b, a), euclid_gcd(a, b));
        let (a, b) = ((a % (1 << 80)) * factor, (b % (1 << 80)) * factor);
        prop_assert_eq!(gcd(a, b), euclid_gcd(a, b));
    }
}

/// Fixed pairs, width boundary first. Across the `u64` loop's width:
/// both operands in [2^63, 2^64), where a loop through `i64` sees negative
/// values; operands just past `u64::MAX`, which a wider selection would
/// truncate; and shared factors of two at the boundary. A fast path that
/// truncates to zero or wraps the sign can subtract forever, so the two
/// pairs that such paths answer wrongly instead come first: `2^64 + 3`
/// against 15 truncates to 3 and 15, and `2^64 − 2` against `2^64 − 4`
/// reads as −2 and −4 in `i64`.
#[test]
fn binary_gcd_boundaries() {
    let max = i128::from(u64::MAX);
    let half = 1i128 << 63;
    let odd = 5_000_000_000_000_000_001;
    for (a, b) in [
        (max + 4, 15),
        (max - 1, max - 3),
        (half + 1, max),
        (half + 3, half + 9),
        (-2 * odd, 3 * odd),
        (max, max + 1),
        (max, max + 2),
        (half, 3 << 62),
        (3 << 62, -(max + 1)),
        (half, max + 1),
        (max + 1, max + 1),
        (0, 0),
        (0, 7),
        (-7, 0),
        (1, max + 1),
        (-(max + 1), 1),
        (max + 1, 1 << 100),
        (i128::MAX, i128::MAX),
        (i128::MAX, -i128::MAX),
        (-(1 << 126), 3 << 120),
    ] {
        assert_eq!(gcd(a, b), euclid_gcd(a, b), "gcd({a}, {b})");
    }
}

/// A `Rational` part's magnitude from one of four groups: small values;
/// multiples of grid-like periods `m·2^k` (16 ≤ m < 32), so that
/// denominators share factors; [2^62, 2^64], across the 64-bit paths'
/// bounds; and above 2^64, near it or up to `i128::MAX`.
fn arb_rational_magnitude() -> impl Strategy<Value = i128> {
    prop_oneof![
        1i128..=1_000,
        arb_grid_multiple(),
        (1i128 << 62)..=(1i128 << 64),
        prop_oneof![
            ((1i128 << 64) + 1)..=(1i128 << 66),
            ((1i128 << 66) + 1)..=i128::MAX,
        ],
    ]
}

/// The first three groups of [`arb_rational_magnitude`] below 2^63, where
/// the `i128` products and sums of the reduce-after reference cannot
/// overflow.
fn arb_narrow_magnitude() -> impl Strategy<Value = i128> {
    prop_oneof![
        1i128..=1_000,
        arb_grid_multiple(),
        (1i128 << 62)..(1i128 << 63),
    ]
}

/// `n` times a grid-like period `m·2^k`, below 2^56.
fn arb_grid_multiple() -> impl Strategy<Value = i128> {
    (16i128..32, 0u32..=40, 1i128..=1_000).prop_map(|(m, k, n)| (m << k) * n)
}

/// A `(numerator, denominator)` pair of `magnitude`s: the numerator of
/// either sign, zero one time in eight; the denominator positive.
fn arb_fraction<S: Strategy<Value = i128>>(
    magnitude: fn() -> S,
) -> impl Strategy<Value = (i128, i128)> {
    (magnitude(), magnitude(), any::<bool>(), 0u8..8).prop_map(|(n, d, negative, zero)| {
        let n = if zero == 0 { 0 } else { n };
        (if negative { -n } else { n }, d)
    })
}

/// The reference `Rational::new`: divide by Euclid's gcd after the fact
/// and move the sign to the numerator.
fn reduced(num: i128, den: i128) -> (i128, i128) {
    let g = euclid_gcd(num, den);
    let sign = if den < 0 { -1 } else { 1 };
    (sign * num / g, sign * den / g)
}

/// `(numer, denom)` of `r`, checked to be in lowest terms with a positive
/// denominator.
fn parts(r: Rational) -> (i128, i128) {
    assert!(r.denom() > 0, "{r:?} has a non-positive denominator");
    assert_eq!(euclid_gcd(r.numer(), r.denom()), 1, "{r:?} is not reduced");
    (r.numer(), r.denom())
}

proptest! {
    /// `Rational::new` over every group, the 64-bit path's width boundary
    /// and the `i128` path beyond it included, matches reduce-after.
    #[test]
    fn rational_new_matches_reduce_after(
        (num, den) in arb_fraction(arb_rational_magnitude),
        den_negative in any::<bool>(),
    ) {
        let den = if den_negative { -den } else { den };
        prop_assert_eq!(parts(Rational::new(num, den)), reduced(num, den));
    }

    /// `+`, `−`, `×` and `cmp` below 2^63, where `+` and `×` take Knuth's
    /// shortcuts, match the reference forming the plain `i128` sum or
    /// product and reducing it after.
    #[test]
    fn rational_ops_match_reduce_after(
        (a, b) in arb_fraction(arb_narrow_magnitude),
        (c, d) in arb_fraction(arb_narrow_magnitude),
    ) {
        let (x, y) = (Rational::new(a, b), Rational::new(c, d));
        let (a, b) = parts(x);
        let (c, d) = parts(y);
        prop_assert_eq!(parts(x + y), reduced(a * d + c * b, b * d));
        prop_assert_eq!(parts(x - y), reduced(a * d - c * b, b * d));
        prop_assert_eq!(parts(x * y), reduced(a * c, b * d));
        prop_assert_eq!(parts(x + x), reduced(2 * a, b));
        prop_assert_eq!(parts(x * x), reduced(a * a, b * b));
        prop_assert_eq!(x.cmp(&y), (a * d).cmp(&(c * b)));
    }
}

/// Pairs `x < y` of known order with magnitudes just below and just above
/// 2^63, 2^64 and 2^65, and across each: `(B − 1)/(B + 1)` against
/// `(B + 1)/(B − 3)` puts one cross product below `B²` and the other above
/// it, so that at `B = 2^64` a comparison in `u128` would wrap one of them.
#[test]
fn rational_cmp_boundaries() {
    for bound in [1i128 << 63, 1 << 64, 1 << 65] {
        for (x, y) in [
            ((bound - 1, bound - 2), (bound - 2, bound - 3)),
            ((bound + 2, bound + 1), (bound + 1, bound)),
            ((bound - 1, bound + 1), (bound + 1, bound - 3)),
        ] {
            let (x, y) = (Rational::new(x.0, x.1), Rational::new(y.0, y.1));
            assert!(x < y, "{x:?} < {y:?}");
            assert!(y > x, "{y:?} > {x:?}");
            assert!(-y < -x, "{:?} < {:?}", -y, -x);
            assert_eq!(x.cmp(&x), core::cmp::Ordering::Equal);
        }
    }
}

#[test]
fn vertex_id_index_roundtrip() {
    for i in [0usize, 1, 7, 1000] {
        assert_eq!(VertexId::from_index(i).index(), i);
    }
}

proptest! {
    /// Structural statistics are internally consistent: average parallelism
    /// (vol/len) never exceeds the peak earliest-start width, which never
    /// exceeds the vertex count; transitive reduction preserves all of them.
    #[test]
    fn stats_and_reduction_consistency(dag in arb_dag(12)) {
        let s = dag.stats();
        prop_assert!(s.peak_width >= 1);
        prop_assert!(s.peak_width <= s.vertices);
        prop_assert!(s.parallelism <= s.peak_width as f64 + 1e-9);
        prop_assert!(s.parallelism >= 1.0 - 1e-9);

        let reduced = dag.transitive_reduction();
        let rs = reduced.stats();
        prop_assert_eq!(rs.vertices, s.vertices);
        prop_assert!(rs.edges <= s.edges);
        prop_assert_eq!(rs.volume, s.volume);
        prop_assert_eq!(rs.longest_chain, s.longest_chain);
        // Reachability is exactly preserved.
        prop_assert_eq!(dag.transitive_closure(), reduced.transitive_closure());
    }

    /// The closure matrix is transitively closed and acyclic (no vertex
    /// reaches itself).
    #[test]
    fn closure_is_transitive_and_irreflexive(dag in arb_dag(10)) {
        let c = dag.transitive_closure();
        let n = dag.vertex_count();
        for a in 0..n {
            prop_assert!(!c[a][a], "cycle through v{a}");
            for b in 0..n {
                if !c[a][b] { continue; }
                for (z, &via) in c[b].iter().enumerate() {
                    if via {
                        prop_assert!(c[a][z], "transitivity broken: {a}->{b}->{z}");
                    }
                }
            }
        }
    }
}
