//! Seeded task generation shared by the codec tests.

use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration;
use fedsched_gen::topology::{Span, Topology, WcetRange};
use rand::rngs::StdRng;
use rand::Rng;

/// A forward-edge Erdős–Rényi task with WCETs in 1..=20, 30 % of them
/// high-density (δ in [1.2, 3]) and the rest low (δ in [0.05, 0.3]), with
/// `T` up to half again `D`. `warm_task(rng, (20, 120), 0.03)` has the
/// shape of the `serve_warm` catalogue.
pub fn warm_task(rng: &mut StdRng, vertices: (u32, u32), edge_probability: f64) -> DagTask {
    let n = rng.gen_range(vertices.0..=vertices.1);
    let dag = Topology::ErdosRenyi {
        vertices: Span::new(n, n),
        edge_probability,
    }
    .generate(rng, WcetRange::new(1, 20));
    let vol = dag.volume().ticks();
    let len = dag.longest_chain().length.ticks();
    let density = if rng.gen_bool(0.3) {
        rng.gen_range(1.2..3.0)
    } else {
        rng.gen_range(0.05..0.3)
    };
    let deadline = ((vol as f64 / density).ceil() as u64).max(len).max(1);
    let period = deadline + rng.gen_range(0..=deadline / 2);
    DagTask::new(dag, Duration::new(deadline), Duration::new(period)).expect("valid task")
}
