//! Seeded inputs. Everything the program under test receives is made here
//! from the workload seed: the simulated suite and its CSV bytes, the serve
//! request pools, and the open-loop arrival schedule. The same seed gives
//! byte-identical inputs.

use std::fmt::Write as _;

use mtperf::counters::{write_csv, SampleSet};
use mtperf::sim::{MachineConfig, Simulator};

use crate::util::{Fnv, Rng};

/// Instructions per profile in `paper_pipeline`: the `mtperf simulate`
/// default, about 3,000 sections over the 15-profile suite.
pub const PIPELINE_INSTR: u64 = 2_000_000;
/// Instructions per profile for the serve workloads' section pool
/// (about 300 sections): enough distinct vectors to build requests from.
pub const SERVE_INSTR: u64 = 200_000;

/// Rows per `serve_batch`/`fleet_batch` request: above the cache's
/// 16-row limit, so cache, registry and fleet bookkeeping do no work.
pub const BATCH_ROWS: usize = 1000;
/// Distinct 1,000-row request bodies the batch scorers cycle through.
pub const BATCH_BODIES: usize = 16;

/// Distinct `serve_whatif` request bodies; with [`ZIPF_S`] about half of
/// the requests of a run repeat an earlier body.
pub const WHATIF_POOL: usize = 4096;
pub const WHATIF_MAX_ROWS: usize = 16;
pub const ZIPF_S: f64 = 1.0;
/// Open-loop arrival rate of `serve_whatif` (requests/s over both
/// connections): half the closed-loop capacity for this mix, about 24,000
/// requests/s over two connections on a 2-vCPU x86-64 VM at the commit
/// that defined the benchmark. Lower rates measured slower, noisier
/// medians there: between sparser requests the VM's vCPUs idle, and
/// waking them dominates the latency.
pub const WHATIF_RATE: f64 = 12000.0;
/// A `promote`/`rollback` of `candidate` every this many seconds.
pub const WRITE_EVERY_S: f64 = 1.0;

/// Connections every serve workload opens to the daemon.
pub const CONNECTIONS: usize = 2;

pub fn simulator(seed: u64) -> Simulator {
    Simulator::new(MachineConfig::core2_duo()).with_seed(seed)
}

pub fn csv_bytes(set: &SampleSet) -> Vec<u8> {
    let mut out = Vec::new();
    write_csv(set, &mut out).expect("writing CSV to memory cannot fail");
    out
}

pub fn rows_of(set: &SampleSet) -> Vec<Vec<f64>> {
    set.iter().map(|s| s.as_row().to_vec()).collect()
}

/// Which served model a request targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    Default,
    Candidate,
}

/// One predict request body: its rows and their JSON text.
pub struct Body {
    pub target: Target,
    pub rows: Vec<Vec<f64>>,
    json: String,
}

impl Body {
    fn new(target: Target, rows: Vec<Vec<f64>>) -> Body {
        let mut json = String::from("[");
        for (i, row) in rows.iter().enumerate() {
            json.push_str(if i == 0 { "[" } else { ",[" });
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    json.push(',');
                }
                // Shortest round-trip formatting: the daemon parses back
                // exactly these bits.
                let _ = write!(json, "{v}");
            }
            json.push(']');
        }
        json.push(']');
        Body { target, rows, json }
    }

    /// The request line, newline included.
    pub fn line(&self, id: &str) -> String {
        let model = match self.target {
            Target::Default => "",
            Target::Candidate => ",\"model\":\"candidate\"",
        };
        format!(
            "{{\"op\":\"predict\",\"id\":\"{id}\"{model},\"rows\":{}}}\n",
            self.json
        )
    }
}

/// [`BATCH_BODIES`] bodies of [`BATCH_ROWS`] rows drawn from the pool.
pub fn batch_bodies(pool: &[Vec<f64>], seed: u64) -> Vec<Body> {
    let mut rng = Rng::stream(seed, "batch-bodies");
    (0..BATCH_BODIES)
        .map(|_| {
            let rows = (0..BATCH_ROWS)
                .map(|_| pool[rng.below(pool.len())].clone())
                .collect();
            Body::new(Target::Default, rows)
        })
        .collect()
}

/// The body sequence one batch connection sends, one draw per request.
pub fn batch_order(seed: u64, conn: usize) -> Rng {
    Rng::stream(seed, &format!("batch-order-{conn}"))
}

/// [`WHATIF_POOL`] bodies of 1–16 rows, split between the two models.
/// Body `i` is drawn with Zipf rank `i`; its size and model depend on the
/// rank alone and its rows on the seed, so the mix of sizes and models a
/// run sends is the same under every seed.
pub fn whatif_bodies(pool: &[Vec<f64>], seed: u64) -> Vec<Body> {
    let mut rng = Rng::stream(seed, "whatif-bodies");
    (0..WHATIF_POOL)
        .map(|i| {
            let target = if (i / WHATIF_MAX_ROWS).is_multiple_of(2) {
                Target::Default
            } else {
                Target::Candidate
            };
            let n = 1 + i % WHATIF_MAX_ROWS;
            let rows = (0..n)
                .map(|_| pool[rng.below(pool.len())].clone())
                .collect();
            Body::new(target, rows)
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    Predict(usize),
    Promote,
    Rollback,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    pub due_ns: u64,
    pub conn: usize,
    pub event: Event,
}

/// Control line for a registry write on `candidate`.
pub fn write_line(event: Event, id: &str) -> String {
    match event {
        Event::Promote => format!(
            "{{\"op\":\"promote\",\"id\":\"{id}\",\"model\":\"candidate\",\"version\":\"v2\"}}\n"
        ),
        Event::Rollback => {
            format!("{{\"op\":\"rollback\",\"id\":\"{id}\",\"model\":\"candidate\"}}\n")
        }
        Event::Predict(_) => unreachable!("predict lines come from their body"),
    }
}

/// The `serve_whatif` arrival schedule over `seconds`: Poisson arrivals at
/// [`WHATIF_RATE`] alternating between the connections, bodies drawn
/// Zipf-style from the pool, and a promote/rollback every
/// [`WRITE_EVERY_S`] on connection 0.
pub fn schedule(seed: u64, seconds: f64, n_bodies: usize) -> Vec<Arrival> {
    let mut rng = Rng::stream(seed, "whatif-schedule");
    let mut cdf: Vec<f64> = (0..n_bodies)
        .scan(0.0, |acc, k| {
            *acc += 1.0 / ((k + 1) as f64).powf(ZIPF_S);
            Some(*acc)
        })
        .collect();
    let total = *cdf.last().expect("non-empty pool");
    cdf.iter_mut().for_each(|c| *c /= total);

    let mut out = Vec::new();
    let mut t = 0.0;
    let mut i = 0usize;
    loop {
        t += -(1.0 - rng.unit()).ln() / WHATIF_RATE;
        if t >= seconds {
            break;
        }
        let u = rng.unit();
        let rank = cdf.partition_point(|&c| c < u).min(n_bodies - 1);
        out.push(Arrival {
            due_ns: (t * 1e9) as u64,
            conn: i % CONNECTIONS,
            event: Event::Predict(rank),
        });
        i += 1;
    }
    let mut k = 0usize;
    while WRITE_EVERY_S * (k as f64 + 0.5) < seconds {
        out.push(Arrival {
            due_ns: (WRITE_EVERY_S * (k as f64 + 0.5) * 1e9) as u64,
            conn: 0,
            event: if k.is_multiple_of(2) {
                Event::Promote
            } else {
                Event::Rollback
            },
        });
        k += 1;
    }
    out.sort_by_key(|a| a.due_ns);
    out
}

pub fn digest_bodies(bodies: &[Body]) -> u64 {
    let mut h = Fnv::new();
    for b in bodies {
        h.update(b.line("").as_bytes());
    }
    h.finish()
}

pub fn digest_schedule(arrivals: &[Arrival]) -> u64 {
    let mut h = Fnv::new();
    for a in arrivals {
        h.update(&a.due_ns.to_le_bytes());
        h.update(&(a.conn as u64).to_le_bytes());
        let code = match a.event {
            Event::Predict(b) => b as u64,
            Event::Promote => u64::MAX,
            Event::Rollback => u64::MAX - 1,
        };
        h.update(&code.to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::fnv1a;

    fn small_suite(seed: u64) -> SampleSet {
        let sim = simulator(seed);
        let mut set = SampleSet::new();
        for w in mtperf::sim::workload::profiles::suite(30_000) {
            set.extend(sim.run(&w, mtperf::sim::DEFAULT_SECTION_LEN));
        }
        set
    }

    /// Digests of every generated input at a reduced scale.
    fn input_digests(seed: u64) -> [u64; 4] {
        let suite = small_suite(seed);
        let pool = rows_of(&suite);
        let whatif = whatif_bodies(&pool, seed);
        let mut order = batch_order(seed, 1);
        let order: Vec<u64> = (0..64).map(|_| order.below(BATCH_BODIES) as u64).collect();
        let order_bytes: Vec<u8> = order.iter().flat_map(|o| o.to_le_bytes()).collect();
        [
            fnv1a(&csv_bytes(&suite)),
            digest_bodies(&batch_bodies(&pool, seed)) ^ fnv1a(&order_bytes),
            digest_bodies(&whatif),
            digest_schedule(&schedule(seed, 2.0, whatif.len())),
        ]
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = input_digests(11);
        assert_eq!(a, input_digests(11), "same seed must give identical inputs");
        let b = input_digests(12);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_ne!(x, y, "input {i} did not change with the seed");
        }
    }

    #[test]
    fn schedule_mixes_writes_into_arrivals() {
        let s = schedule(3, 3.0, 100);
        let writes = s
            .iter()
            .filter(|a| !matches!(a.event, Event::Predict(_)))
            .count();
        assert_eq!(writes, 3);
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let predicts = s.len() - writes;
        let expected = 3.0 * WHATIF_RATE;
        assert!((predicts as f64 - expected).abs() < 0.1 * expected);
    }

    #[test]
    fn request_lines_round_trip_exactly() {
        let pool = rows_of(&small_suite(5));
        let body = &batch_bodies(&pool, 5)[0];
        let req: mtperf::serve::protocol::Request =
            serde_json::from_str(body.line("x").trim_end()).expect("valid request line");
        let rows = req.rows.expect("rows present");
        assert_eq!(rows.len(), BATCH_ROWS);
        for (got, want) in rows.iter().zip(&body.rows) {
            let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want);
        }
    }
}
