//! In-process timing of the layers a served `predict` row passes through,
//! on request lines shaped like the benchmark's `serve_batch` requests: 16
//! predicts of 1,000 rows drawn from the simulated suite (200,000
//! instructions per profile), each value written in shortest round-trip
//! form. Prints the share of number tokens on each of the scanner's
//! conversion paths (exact, Eisel–Lemire, `parse::<f64>`), then the median
//! and the minimum ns per row, over 21 passes, of framing
//! (`read_bounded_line`), `decode_request` (the daemon), `decode_header`
//! (the fleet router), `str::parse::<f64>` over every number token and
//! over those that still reach it in the scanner, serial compiled
//! predict, `Response::to_line`, and `decode_reply_header` (the router
//! reading each reply).
//!
//! Run with: `cargo run --release --example decode_probe [seed]`

use std::fmt::Write as _;
use std::hint::black_box;
use std::io::BufReader;
use std::time::Instant;

use mtperf::linalg::{Matrix, Parallelism};
use mtperf::prelude::*;
use mtperf::serve::protocol::{
    decode_header, decode_reply_header, decode_request, read_bounded_line, LineRead, Response,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const ROWS: usize = 1000;
const BODIES: usize = 16;
const REPEATS: usize = 21;

/// Median and minimum over [`REPEATS`] passes of `pass`, in ns per row.
/// On a host with steal noise the minimum moves least.
fn ns_per_row(rows: usize, mut pass: impl FnMut()) -> (f64, f64) {
    let mut ns: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_nanos() as f64 / rows as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    (ns[REPEATS / 2], ns[0])
}

/// The scanner's conversion paths, in the order it tries them.
const PATHS: [&str; 3] = ["exact", "Eisel-Lemire", "parse::<f64>"];

/// Which path the scanner converts `token` by (an index into [`PATHS`]),
/// restated here as the scanner is private: exact for at most 19
/// significant digits, a significand `w` of at most 2^53 and a decimal
/// exponent `q` within ±22; Eisel–Lemire for at most 19 significant
/// digits, `w ≠ 0` and `q` in -27..=55; `parse::<f64>` otherwise.
fn path(token: &str) -> usize {
    let (mantissa, exponent) = token.split_once(['e', 'E']).unwrap_or((token, "0"));
    let fraction = mantissa.split_once('.').map_or(0, |(_, f)| f.len()) as i64;
    let digits = mantissa
        .trim_start_matches(['-', '0', '.'])
        .replace('.', "");
    let q = exponent.parse::<i64>().unwrap_or(i64::MAX) - fraction;
    let w = digits.parse::<u64>().unwrap_or(0);
    if digits.len() > 19 {
        2
    } else if w <= 1 << 53 && (-22..=22).contains(&q) {
        0
    } else if w != 0 && (-27..=55).contains(&q) {
        1
    } else {
        2
    }
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map_or(2007, |s| s.parse().expect("seed is an integer"));
    let samples = mtperf::sim::simulate_suite(200_000, 10_000, seed);
    let pool: Vec<&[f64]> = samples.iter().map(|s| s.as_row()).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let lines: Vec<String> = (0..BODIES)
        .map(|b| {
            let mut line = format!("{{\"op\":\"predict\",\"id\":\"b{b}\",\"rows\":[");
            for r in 0..ROWS {
                line.push_str(if r == 0 { "[" } else { ",[" });
                for (j, v) in pool[rng.gen_range(0..pool.len())].iter().enumerate() {
                    if j > 0 {
                        line.push(',');
                    }
                    let _ = write!(line, "{v}");
                }
                line.push(']');
            }
            line.push_str("]}");
            line
        })
        .collect();
    let stream: Vec<u8> = lines
        .iter()
        .flat_map(|l| l.bytes().chain([b'\n']))
        .collect();
    let tokens: Vec<&str> = lines
        .iter()
        .flat_map(|l| l.split(['[', ']', ',']))
        .filter(|t| t.starts_with(|c: char| c.is_ascii_digit() || c == '-'))
        .collect();
    let mut on_path = [0usize; PATHS.len()];
    for token in &tokens {
        on_path[path(token)] += 1;
    }
    let parsed: Vec<&str> = tokens.iter().copied().filter(|t| path(t) == 2).collect();
    let rows = BODIES * ROWS;

    let data = mtperf::dataset_from_samples(&samples).expect("a non-empty suite");
    let params = M5Params::default().with_min_instances((data.n_rows() / 30).max(8));
    let compiled = ModelTree::fit(&data, &params).expect("fits").compile();
    let matrices: Vec<Matrix> = lines
        .iter()
        .map(|line| {
            let rows = decode_request(line)
                .expect("valid request")
                .1
                .expect("rows");
            Matrix::from_vec(rows.count, rows.width, rows.values).expect("rectangular")
        })
        .collect();
    let predictions: Vec<Vec<f64>> = matrices
        .iter()
        .map(|m| compiled.predict_batch_with(m, Parallelism::Off))
        .collect();

    let replies: Vec<String> = predictions
        .iter()
        .map(|p| Response::predictions(Some("b".into()), p.clone(), false).to_line())
        .collect();

    let parse = |tokens: &[&str]| {
        ns_per_row(rows, || {
            for token in tokens {
                black_box(token.parse::<f64>().expect("a number"));
            }
        })
    };
    let layers = [
        (
            "framing",
            ns_per_row(rows, || {
                let mut reader = BufReader::new(&stream[..]);
                while let LineRead::Line(line) = read_bounded_line(&mut reader).expect("in memory")
                {
                    black_box(line);
                }
            }),
        ),
        (
            "decode_request",
            ns_per_row(rows, || {
                for line in &lines {
                    black_box(decode_request(line).expect("valid request"));
                }
            }),
        ),
        (
            "decode_header",
            ns_per_row(rows, || {
                for line in &lines {
                    black_box(decode_header(line).expect("valid request"));
                }
            }),
        ),
        ("parse all", parse(&tokens)),
        ("parse fallback", parse(&parsed)),
        (
            "predict",
            ns_per_row(rows, || {
                for m in &matrices {
                    black_box(compiled.predict_batch_with(m, Parallelism::Off));
                }
            }),
        ),
        (
            "encode",
            ns_per_row(rows, || {
                for p in &predictions {
                    let reply = Response::predictions(Some("b".into()), p.clone(), false);
                    black_box(reply.to_line());
                }
            }),
        ),
        (
            "reply header",
            ns_per_row(rows, || {
                for reply in &replies {
                    black_box(decode_reply_header(reply).expect("valid reply"));
                }
            }),
        ),
    ];
    println!(
        "{rows} rows of {} tokens, {:.0} bytes per row (seed {seed})",
        tokens.len() / rows,
        stream.len() as f64 / rows as f64,
    );
    for (name, n) in PATHS.iter().zip(on_path) {
        println!(
            "{:5.1}% of tokens on the {name} path",
            100.0 * n as f64 / tokens.len() as f64
        );
    }
    println!("ns/row           median     min");
    for (name, (median, min)) in layers {
        println!("{name:<15} {median:8.1} {min:7.1}");
    }
}
