//! Seeded inputs: the serve catalogues and the batch corpus.
//!
//! Every DAG is forward-edge Erdős–Rényi from `fedsched-gen`; each
//! generator draws from its own `StdRng` stream derived from the run seed,
//! so the same seed always yields the same inputs. The parameters that
//! set an input's cost — vertex count, density, slack, the high/low mix,
//! system size — come from [`Spread`] sequences rather than independent
//! draws, so the work in a catalogue differs less from seed to seed than
//! sampling noise would make it, while edges and WCETs stay random.

use fedsched_dag::graph::Dag;
use fedsched_dag::system::TaskSystem;
use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration;
use fedsched_gen::params::round_period_to_grid;
use fedsched_gen::topology::{Span, Topology, WcetRange};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Vertex counts of every catalogue and corpus DAG but the churn fillers.
pub const VERTICES: (u32, u32) = (20, 120);
/// Erdős–Rényi edge probability; with [`VERTICES`] an admit frame is
/// about 1–2 KB.
const EDGE_PROBABILITY: f64 = 0.03;

/// An independent generator stream for one purpose of one seed.
#[must_use]
pub fn stream(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A Weyl low-discrepancy sequence in `[0, 1)` with a seeded start:
/// successive values cover the interval evenly.
struct Spread {
    x: f64,
    step: f64,
}

/// Fractional parts of rationally independent irrationals: sequences
/// with distinct steps cover the unit cube jointly, so parameters drawn
/// from them are not correlated with each other.
const STEPS: [f64; 5] = [
    0.618_033_988_749_895, // φ − 1
    0.414_213_562_373_095, // √2 − 1
    0.732_050_807_568_877, // √3 − 1
    0.236_067_977_499_790, // √5 − 2
    0.645_751_311_064_591, // √7 − 2
];

/// One sequence per parameter, each with its own step.
fn spreads<const N: usize>(rng: &mut StdRng) -> [Spread; N] {
    std::array::from_fn(|i| Spread {
        x: rng.gen_range(0.0..1.0),
        step: STEPS[i],
    })
}

impl Spread {
    fn next(&mut self, lo: f64, hi: f64) -> f64 {
        self.x = (self.x + self.step) % 1.0;
        lo + (hi - lo) * self.x
    }

    fn vertices(&mut self, range: (u32, u32)) -> u32 {
        (self.next(f64::from(range.0), f64::from(range.1) + 1.0) as u32).min(range.1)
    }
}

fn er_dag(rng: &mut StdRng, vertices: u32) -> Dag {
    Topology::ErdosRenyi {
        vertices: Span::new(vertices, vertices),
        edge_probability: EDGE_PROBABILITY,
    }
    .generate(rng, WcetRange::new(1, 20))
}

/// An ER task whose density `vol / D` is about `density` (never below
/// what chain feasibility allows), with `T = D · (1 + slack)` rounded up
/// to the generator's period grid.
fn task_with_density(rng: &mut StdRng, vertices: u32, density: f64, slack: f64) -> DagTask {
    let dag = er_dag(rng, vertices);
    let vol = dag.volume().ticks();
    let len = dag.longest_chain().length.ticks();
    let deadline = ((vol as f64 / density).ceil() as u64).max(len).max(1);
    let period = round_period_to_grid(deadline + (deadline as f64 * slack) as u64);
    DagTask::new(dag, Duration::new(deadline), Duration::new(period))
        .expect("D ≤ T and a valid DAG")
}

/// The serve_warm / serve_durable catalogue: `n` distinct mixed-density
/// tasks, 30 % high-density (δ in [1.2, 3]) and the rest low-density
/// (δ in [0.05, 0.3]).
#[must_use]
pub fn warm_catalogue(seed: u64, n: usize) -> Vec<DagTask> {
    let mut rng = stream(seed, 1);
    let [mut size, mut mix, mut density, mut slack] = spreads(&mut rng);
    (0..n)
        .map(|_| {
            let vertices = size.vertices(VERTICES);
            let slack = slack.next(0.0, 0.5);
            let density = if mix.next(0.0, 1.0) < 0.3 {
                density.next(1.2, 3.0)
            } else {
                density.next(0.05, 0.3)
            };
            task_with_density(&mut rng, vertices, density, slack)
        })
        .collect()
}

/// The serve_churn catalogues: `high` high-density shapes for the
/// template cache (δ in [1.1, 2], so a cluster takes 2–3 of the 16
/// processors and the pool size barely moves) and `low` small
/// low-density fillers (8–30 vertices, δ in [0.08, 0.15]) for the shared
/// pool.
#[must_use]
pub fn churn_catalogues(seed: u64, high: usize, low: usize) -> (Vec<DagTask>, Vec<DagTask>) {
    let mut rng = stream(seed, 2);
    let [mut size, mut density, mut slack] = spreads(&mut rng);
    let high = (0..high)
        .map(|_| {
            let (v, d, s) = (
                size.vertices(VERTICES),
                density.next(1.1, 2.0),
                slack.next(0.0, 0.5),
            );
            task_with_density(&mut rng, v, d, s)
        })
        .collect();
    let low = (0..low)
        .map(|_| {
            let (v, d, s) = (
                size.vertices((8, 30)),
                density.next(0.08, 0.15),
                slack.next(0.0, 0.3),
            );
            task_with_density(&mut rng, v, d, s)
        })
        .collect();
    (high, low)
}

/// The batch_fedcons corpus: `n` constrained-deadline systems of 4–10
/// tasks each, 45 % of them high-density with deadlines squeezed toward
/// the critical path (`D = len + f·(T − len)`, `f` in [0, 0.3]), the rest
/// low-density (`D ≥ vol`).
#[must_use]
pub fn batch_corpus(seed: u64, n: usize) -> Vec<TaskSystem> {
    let mut rng = stream(seed, 3);
    let [mut count, mut size, mut mix, mut util, mut squeeze] = spreads(&mut rng);
    (0..n)
        .map(|_| {
            let tasks = count.next(4.0, 11.0) as usize;
            let mut system = TaskSystem::new();
            for _ in 0..tasks {
                let dag = er_dag(&mut rng, size.vertices(VERTICES));
                let vol = dag.volume().ticks();
                let len = dag.longest_chain().length.ticks();
                let (deadline, period) = if mix.next(0.0, 1.0) < 0.45 {
                    let u = util.next(0.3, 1.2);
                    let period = round_period_to_grid(((vol as f64 / u) as u64).max(len));
                    let f = squeeze.next(0.0, 0.3);
                    (len + (f * (period - len) as f64) as u64, period)
                } else {
                    let u = util.next(0.02, 0.3);
                    let period = round_period_to_grid((vol as f64 / u) as u64);
                    let f = squeeze.next(0.0, 0.5);
                    (vol + (f * (period - vol) as f64) as u64, period)
                };
                system.push(
                    DagTask::new(dag, Duration::new(deadline.max(1)), Duration::new(period))
                        .expect("len ≤ D ≤ T"),
                );
            }
            system
        })
        .collect()
}

/// A seeded permutation of `0..n`.
#[must_use]
pub fn permutation(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(warm_catalogue(5, 12), warm_catalogue(5, 12));
        assert_ne!(warm_catalogue(5, 12), warm_catalogue(6, 12));
        let corpus = batch_corpus(9, 6);
        assert_eq!(corpus.len(), 6);
        for system in &corpus {
            assert!((4..=10).contains(&system.len()));
            assert!(system.tasks().iter().all(|t| t.deadline() <= t.period()));
            assert!(system.all_chains_feasible());
        }
    }

    #[test]
    fn catalogues_mix_densities_and_sizes() {
        let warm = warm_catalogue(1, 200);
        let high = warm.iter().filter(|t| t.is_high_density()).count();
        assert!((50..=70).contains(&high), "{high} high-density of 200");
        let sizes: Vec<usize> = warm.iter().map(|t| t.dag().vertex_count()).collect();
        assert!(sizes.iter().all(|&v| (20..=120).contains(&v)));
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!((mean - 70.0).abs() < 3.0, "mean vertex count {mean}");
        let (high, low) = churn_catalogues(1, 20, 50);
        assert!(high.iter().all(DagTask::is_high_density));
        assert!(low.iter().all(DagTask::is_low_density));
    }
}
