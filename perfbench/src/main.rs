//! The wbist benchmark: three workloads over the public APIs of the
//! layer crates, end-to-end metrics from an untraced run and per-layer
//! metrics from a traced one. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline|synth-large|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Every result is also
//! written, with the host fingerprint, under `.perfbench/results/`.

mod layers;
mod pipeline;
mod serve_mix;
mod synth_large;
mod trace;
mod units;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;
use wbist_telemetry::Json;

/// End-to-end metrics: every untraced run reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("coverage", "ratio"),
    ("omega_pruned", "count"),
    ("peak_rss_mb", "MB"),
    ("serve_short_p50_ms", "ms"),
    ("serve_short_p90_ms", "ms"),
    ("serve_long_p50_ms", "ms"),
    ("serve_jobs_per_s", "1/s"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics: every traced run reports each of them; a layer
/// the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuits.build_s", "s"),
    ("sim.lower_s", "s"),
    ("atpg.generate_s", "s"),
    ("atpg.vectors", "count"),
    ("atpg.compact_s", "s"),
    ("atpg.compact_ratio", "ratio"),
    ("sim.grade_s", "s"),
    ("sim.grade_fault_cycles", "count"),
    ("select.wall_s", "s"),
    ("select.candidates_tried", "count"),
    ("select.screen_calls", "count"),
    ("select.skip_ratio", "ratio"),
    ("select.kept_ratio", "ratio"),
    ("select.prefix_hit_ratio", "ratio"),
    ("select.fault_cycles", "count"),
    ("select.gates_evaluated", "count"),
    ("select.trace_gates_evaluated", "count"),
    ("select.snapshot_spills", "count"),
    ("select.ns_per_candidate", "ns"),
    ("prune.wall_s", "s"),
    ("prune.fault_cycles", "count"),
    ("prune.ns_per_fault_cycle", "ns"),
    ("prune.kept_ratio", "ratio"),
    ("prune.kept", "count"),
    ("obs.wall_s", "s"),
    ("obs.fault_cycles", "count"),
    ("obs.ns_per_fault_cycle", "ns"),
    ("obs.rows", "count"),
    ("hw.generator_s", "s"),
    ("hw.generator_gates", "count"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("serve.register_s", "s"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p90_ms", "ms"),
    ("serve.run_p50_ms", "ms"),
    ("serve.evictions", "count"),
    ("serve.resumes", "count"),
    ("serve.retries", "count"),
    ("serve.checkpoints_rejected", "count"),
    ("sim.fault_cycles", "count"),
    ("sim.gates_evaluated", "count"),
    ("unattributed_s", "s"),
    ("unattributed_share", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Set-up is sampled this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 15;

/// Shortest set-up sample. A set-up that takes milliseconds is repeated
/// within one sample until this much time has passed, and the sample is
/// the mean, so scheduler noise does not decide it.
pub const SETUP_SAMPLE_MIN: Duration = Duration::from_millis(50);

/// The seed whose results are pinned in each workload.
pub const DEFAULT_SEED: u64 = 1;

/// Where results, spans and the determinism ledger go, relative to the
/// checkout root the benchmark runs from.
const OUT_DIR: &str = ".perfbench";

pub type Metrics = BTreeMap<&'static str, f64>;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run hands back.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (flows, synthesis requests, daemon jobs).
    pub attempted: u64,
    /// Operations whose output failed a check, or that failed outright.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// Deterministic counters per unit of work (per served input for
    /// `serve-mix`; traced runs only), for the cross-run determinism
    /// ledger. An empty entry is not compared.
    pub unit_counters: Vec<Vec<(String, u64)>>,
    /// Workload-specific record for the results file.
    pub detail: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Records a failed check against one operation.
    pub fn fail(&mut self, problem: String) {
        eprintln!("CHECK FAILED: {problem}");
        self.problems.push(problem);
        self.failed += 1;
    }
}

/// A well-mixed sub-seed (SplitMix64 finalizer), so neighbouring bench
/// seeds give unrelated inputs.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A non-zero 24-bit LFSR seed from a sub-seed.
pub fn lfsr_seed(seed: u64) -> u32 {
    ((seed as u32) & 0x00FF_FFFF).max(1)
}

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over the running executable: "the same code" for the ledger.
fn exe_fingerprint() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    format!("{h:016x}")
}

fn host_fingerprint(exe: &str) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("cpu_model", field("model name").as_str().into()),
        ("cpu_mhz", field("cpu MHz").as_str().into()),
        ("nproc", nproc.into()),
        ("simd", simd_features().into()),
        ("rustc", env!("PERFBENCH_RUSTC").into()),
        ("git_sha", env!("PERFBENCH_GIT_SHA").into()),
        ("exe_fnv", exe.into()),
    ])
}

#[cfg(target_arch = "x86_64")]
fn simd_features() -> &'static str {
    macro_rules! detect {
        ($($f:tt),*) => {{
            let mut on: Vec<&str> = Vec::new();
            $(if std::arch::is_x86_feature_detected!($f) { on.push($f); })*
            Box::leak(on.join(",").into_boxed_str())
        }};
    }
    detect!("sse2", "sse4.2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512vl")
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_features() -> &'static str {
    "none detected (not x86_64)"
}

/// Compares this run's per-unit deterministic counters with the last
/// traced run of the same executable and seed, then records them.
/// Disagreement means the same code did different work on the same
/// inputs, which the benchmark reports as a failed check.
fn check_ledger(args: &Args, exe: &str, out: &mut Outcome) {
    if out.unit_counters.is_empty() {
        return;
    }
    let path = Path::new(OUT_DIR)
        .join("ledger")
        .join(format!("{}-seed{}.json", args.workload, args.seed));
    let units_json = |units: &[Vec<(String, u64)>]| {
        Json::Array(
            units
                .iter()
                .map(|u| Json::Object(u.iter().map(|(k, v)| (k.clone(), Json::UInt(*v))).collect()))
                .collect(),
        )
    };
    let current = units_json(&out.unit_counters);
    if let Some(prev) = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| Json::parse(&s).ok())
    {
        if prev.get("exe").and_then(Json::as_str) == Some(exe) {
            let old = prev.get("units").and_then(Json::as_array).unwrap_or(&[]);
            let new = current.as_array().unwrap_or(&[]);
            for (k, (a, b)) in old.iter().zip(new).enumerate() {
                let empty = |u: &Json| u.as_object().is_none_or(<[_]>::is_empty);
                if !empty(a) && !empty(b) && a.render() != b.render() {
                    out.fail(format!(
                        "unit {k}: deterministic counters differ from the previous run of this executable at seed {}",
                        args.seed
                    ));
                }
            }
        }
    }
    let record = Json::obj(vec![("exe", exe.into()), ("units", current)]);
    write_file(&path, &record.render_pretty());
}

fn write_file(path: &Path, text: &str) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, format!("{text}\n")) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: perfbench --workload pipeline|synth-large|serve-mix --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .unwrap_or_else(|| usage(&format!("`{}` needs a value", argv[i])));
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    Args {
        workload,
        seed,
        seconds,
        trace,
    }
}

fn main() {
    let args = parse_args();
    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin);
    let mut out = match args.workload.as_str() {
        "pipeline" => pipeline::run(&args, &mut tracer),
        "synth-large" => synth_large::run(&args, &mut tracer),
        "serve-mix" => serve_mix::run(&args, &mut tracer),
        other => usage(&format!("unknown workload `{other}`")),
    };
    let exe = exe_fingerprint();
    let (names, metric_set) = if args.trace {
        check_ledger(&args, &exe, &mut out);
        ("per_layer", PER_LAYER)
    } else {
        out.metrics.insert("peak_rss_mb", peak_rss_mb());
        let ok = out.attempted - out.failed.min(out.attempted);
        out.metrics
            .insert("ok_ratio", ratio(ok as f64, out.attempted as f64));
        ("end_to_end", END_TO_END)
    };
    let mut metrics = Vec::new();
    for &(name, unit) in metric_set {
        // `+ 0.0` turns a -0.0 (an empty float sum) into 0.
        let value = out.metrics.get(name).copied().unwrap_or(0.0) + 0.0;
        metrics.push((
            name,
            Json::obj(vec![("value", Json::Float(value)), ("unit", unit.into())]),
        ));
    }
    let correct = out.problems.is_empty() && out.attempted > 0;
    let result = Json::obj(vec![
        ("correct", correct.into()),
        ("attempted", out.attempted.max(1).into()),
        ("failed", out.failed.into()),
        ("metrics", Json::obj(metrics)),
    ]);

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let dir = PathBuf::from(OUT_DIR).join("results");
    let record = Json::obj(
        [
            vec![
                ("workload", args.workload.as_str().into()),
                ("seed", args.seed.into()),
                ("seconds", args.seconds.into()),
                ("metric_set", names.into()),
                ("host", host_fingerprint(&exe)),
                ("result", result.clone()),
                (
                    "problems",
                    Json::Array(out.problems.iter().map(|p| p.as_str().into()).collect()),
                ),
            ],
            out.detail,
        ]
        .concat(),
    );
    write_file(&dir.join(format!("{stem}.json")), &record.render_pretty());
    if args.trace {
        write_file(
            &dir.join(format!("{stem}.spans.json")),
            &tracer.to_json().render(),
        );
    }
    println!("{}", record.render_pretty());
    println!("{}", result.render());
}
