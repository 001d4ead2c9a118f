//! `perfbench`: the end-to-end and per-layer benchmark of the campaign
//! stack (see `README.md` beside this crate for the workloads, the
//! metrics and the layer → metric map).
//!
//! ```text
//! perfbench --workload <litmus-native|litmus-stress|app-serve>
//!           [--seed N] [--seconds S] [--trace 0|1]
//!           [--scale full|tiny] [--expect-digest HEX]
//! ```
//!
//! One run sets the workload up, then repeats passes over the same
//! seed-derived inputs until `--seconds` have elapsed. Every campaign
//! runs on one thread, and every end-to-end timing is CPU time scaled to
//! a reference host speed ([`clock::RefTimer`]), so that neither a busy
//! nor a drifting host moves the figures. The first pass warms up and is
//! left out of the timings. The process is pinned to one CPU, so that
//! the speed probe and the campaigns it scales share a core. With `--trace 0` the last stdout line carries the end-to-end metrics; with `--trace 1`
//! untraced and traced passes alternate and it carries the per-layer
//! split. Every pass must reproduce the first pass's per-campaign
//! digests, and at the default seed and scale the recorded results
//! digest; any mismatch, panic or failed check counts the campaign as
//! failed.

mod apps;
mod clock;
mod litmus;
mod trace;

use gpu_wmm::core::campaign::Fnv64;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The workload seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 2016;

/// Results digests at [`DEFAULT_SEED`] and full scale. They depend on
/// the simulated results only, never on wall-clock time or worker
/// counts; a change that moves one must say why.
const EXPECTED_DIGESTS: [(&str, u64); 3] = [
    ("litmus-native", 0x7215_822c_554c_ccc2),
    ("litmus-stress", 0x5598_73dc_aae0_c89b),
    ("app-serve", 0x03a0_43d4_a8c7_602b),
];

/// A hung campaign or engine is reported as a failure after this long.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Setups before each untraced pass; the pass uses the last. Set-up is
/// short, so repeating it gives `setup_s` enough samples for a steady
/// median.
const SETUPS_PER_PASS: usize = 3;

/// Campaign workers and engine workers. One thread keeps the figures
/// free of scheduling between threads on a host the benchmark shares.
pub const WORKERS: usize = 1;

/// End-to-end metrics (untraced run), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("runs_per_cpu_s", "1/s"),
    ("job_cpu_ms_p50", "ms"),
    ("job_cpu_ms_p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The layers whose simulator metrics are also split per stress group.
pub const SIM_GROUPS: [&str; 3] = ["global", "shared", "l1"];

const SIM_METRICS: [(&str, &str); 8] = [
    ("us_per_launch", "us"),
    ("ns_per_inst", "ns"),
    ("ns_per_turn", "ns"),
    ("share", "ratio"),
    ("insts_per_launch", "count"),
    ("turns_per_launch", "count"),
    ("window_per_launch", "count"),
    ("l1_stale_per_launch", "count"),
];

const LAYER_METRICS: [(&str, &str); 18] = [
    ("gen.instance_ms", "ms"),
    ("analysis.verdict_ms", "ms"),
    ("core.artifact_builds", "count"),
    ("core.artifact_build_ms", "ms"),
    ("core.cache_hit_rate", "ratio"),
    ("core.stress_make_us_per_run", "us"),
    ("core.campaign_self_us_per_run", "us"),
    ("litmus.launch_us_per_run", "us"),
    ("litmus.observe_us_per_run", "us"),
    ("litmus.fold_us_per_run", "us"),
    ("apps.calibrate_ms", "ms"),
    ("apps.launch_us_per_run", "us"),
    ("apps.check_us_per_run", "us"),
    ("server.parse_us_per_job", "us"),
    ("server.submit_us_per_job", "us"),
    ("server.queue_wait_ms_p50", "ms"),
    ("server.busy_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Every per-layer metric (traced run), with units. A layer the
/// workload does not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &str)> = LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for prefix in
        std::iter::once("sim".to_string()).chain(SIM_GROUPS.iter().map(|g| format!("sim.{g}")))
    {
        for (n, u) in SIM_METRICS {
            out.push((format!("{prefix}.{n}"), u));
        }
    }
    out
}

/// Benchmark scale: `full` is what the metrics are defined at; `tiny`
/// shrinks every campaign for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The defined benchmark.
    Full,
    /// Two executions per cell, one run per job.
    Tiny,
}

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Set metric `name`.
    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }
}

static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
static FAILED: AtomicU64 = AtomicU64::new(0);

/// Count `n` campaigns attempted.
pub fn attempted(n: u64) {
    ATTEMPTED.fetch_add(n, Ordering::Relaxed);
}

/// Count `n` campaigns failed, saying why on stderr.
pub fn failed(n: u64, why: &str) {
    let before = FAILED.fetch_add(n, Ordering::Relaxed);
    if before < 20 {
        eprintln!("perfbench: {n} campaign(s) failed: {why}");
    }
}

/// What one pass over a workload's inputs produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Reference CPU seconds of the pass's campaigns, summed.
    pub ref_s: f64,
    /// Simulated executions completed (litmus runs, or application
    /// campaign runs).
    pub runs: u64,
    /// Per-campaign reference CPU ms, one sample per campaign.
    pub job_ms: Vec<f64>,
    /// Per-campaign `SummaryValue::digest`, canonical order (0 for a
    /// campaign that produced no summary).
    pub digests: Vec<u64>,
}

impl Pass {
    /// The results digest: [`Fnv64`] over the per-campaign digests.
    pub fn digest(&self) -> u64 {
        let mut f = Fnv64::new();
        for &d in &self.digests {
            f.write_u64(d);
        }
        f.finish()
    }
}

/// One benchmark workload.
pub trait Bench {
    /// Prepare the inputs of the next pass; returns its reference CPU
    /// seconds.
    fn setup(&mut self) -> f64;
    /// One pass through the public entry points, untraced.
    fn pass(&mut self) -> Pass;
    /// The same pass replayed with spans around each layer's calls.
    fn traced_pass(&mut self) -> Pass;
    /// The per-layer metrics gathered so far.
    fn layer_metrics(&self, m: &mut Metrics);
    /// Worker counts, for the run's metadata line.
    fn workers(&self) -> String;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    expect_digest: Option<u64>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <litmus-native|litmus-stress|app-serve> [--seed N] \
         [--seconds S] [--trace 0|1] [--scale full|tiny] [--expect-digest HEX]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        expect_digest: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        let bad = || -> ! { usage(&format!("bad value {value:?} for {flag}")) };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                args.seconds = value.parse().unwrap_or_else(|_| bad());
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    bad()
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => bad(),
                }
            }
            "--expect-digest" => {
                args.expect_digest = Some(u64::from_str_radix(value, 16).unwrap_or_else(|_| bad()))
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    args
}

/// `v` without its first element, the warm-up, when there is more.
fn after_warmup<T>(v: &[T]) -> &[T] {
    if v.len() > 1 {
        &v[1..]
    } else {
        v
    }
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// The `p` quantile with linear interpolation between order statistics.
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Print the result line and leave.
fn finish(metrics: &[(String, f64, &str)], ok_so_far: bool) -> ! {
    let attempted = ATTEMPTED.load(Ordering::Relaxed).max(1);
    let failed = FAILED.load(Ordering::Relaxed).min(attempted);
    let correct = ok_so_far && failed == 0;
    println!(
        "{:<40} {:>16} ratio  ({failed} of {attempted} campaigns)",
        "failed_frac",
        failed as f64 / attempted as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    let _ = std::io::stdout().flush();
    std::process::exit(if ok_so_far { 0 } else { 2 })
}

/// Compare a pass's digests with the first pass's and with the
/// recorded digest; count every mismatching campaign as failed.
fn check_pass(reference: &mut Option<Vec<u64>>, p: &Pass, expected: Option<u64>, what: &str) {
    match reference {
        None => *reference = Some(p.digests.clone()),
        Some(r) => {
            let bad = r.iter().zip(&p.digests).filter(|(a, b)| a != b).count()
                + r.len().abs_diff(p.digests.len());
            if bad > 0 {
                failed(
                    bad as u64,
                    &format!("{what} pass differs from the first pass"),
                );
            }
        }
    }
    if let Some(e) = expected {
        let got = p.digest();
        if got != e {
            failed(
                p.digests.len() as u64,
                &format!("{what} pass results digest {got:016x} != expected {e:016x}"),
            );
        }
    }
}

fn main() {
    let args = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = clock::pin_to_current_cpu();
    let mut bench: Box<dyn Bench> = match args.workload.as_str() {
        "litmus-native" => Box::new(litmus::Litmus::native(args.seed, args.scale)),
        "litmus-stress" => Box::new(litmus::Litmus::stress(args.seed, args.scale)),
        "app-serve" => Box::new(apps::AppServe::new(args.seed, args.scale)),
        "" => usage("--workload is required"),
        other => usage(&format!("unknown workload {other:?}")),
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!(
            "perfbench: watchdog: no result after {WATCHDOG:?}; a campaign or the engine hung"
        );
        failed(1, "watchdog expired");
        finish(&[], false);
    });

    let expected = args.expect_digest.or_else(|| {
        (args.seed == DEFAULT_SEED && args.scale == Scale::Full)
            .then(|| {
                EXPECTED_DIGESTS
                    .iter()
                    .find(|(w, _)| *w == args.workload)
                    .map(|&(_, d)| d)
            })
            .flatten()
    });
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut reference = None;
    let (mut setups, mut plain, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        for _ in 0..SETUPS_PER_PASS {
            setups.push(bench.setup());
        }
        let p = bench.pass();
        check_pass(&mut reference, &p, expected, "untraced");
        plain.push(p);
        if args.trace {
            setups.push(bench.setup());
            let t = bench.traced_pass();
            check_pass(&mut reference, &t, expected, "traced");
            traced.push(t);
        }
        if start.elapsed() >= budget {
            break;
        }
    }

    let first = &plain[0];
    let timed = after_warmup(&plain);
    let throughput: Vec<f64> = timed
        .iter()
        .map(|p| trace::ratio(p.runs as f64, p.ref_s))
        .collect();
    let jobs: Vec<f64> = timed
        .iter()
        .flat_map(|p| p.job_ms.iter().copied())
        .collect();
    eprintln!(
        "perfbench: runs per reference CPU second by pass: {:.0?}",
        plain
            .iter()
            .map(|p| trace::ratio(p.runs as f64, p.ref_s))
            .collect::<Vec<_>>()
    );
    println!(
        "workload={} seed={} scale={:?} nproc={nproc} pinned_cpu={} {} passes={}+{} traced campaigns/pass={} \
         pass_ref_s={:.3} host_speed={:.3} job_samples={} digest={:016x}",
        args.workload,
        args.seed,
        args.scale,
        pinned.map_or("none".to_string(), |c| c.to_string()),
        bench.workers(),
        plain.len(),
        traced.len(),
        first.digests.len(),
        median(&timed.iter().map(|p| p.ref_s).collect::<Vec<_>>()),
        clock::median_host_speed(),
        jobs.len(),
        first.digest()
    );

    let mut values = Metrics::default();
    let names: Vec<(String, &str)> = if args.trace {
        bench.layer_metrics(&mut values);
        let cpu = |ps: &[Pass]| median(&after_warmup(ps).iter().map(|p| p.ref_s).collect::<Vec<_>>());
        values.set(
            "trace.overhead_frac",
            trace::ratio(cpu(&traced), cpu(&plain)) - 1.0,
        );
        per_layer()
    } else {
        values.set("runs_per_cpu_s", median(&throughput));
        values.set("job_cpu_ms_p50", percentile(&jobs, 0.50));
        values.set("job_cpu_ms_p95", percentile(&jobs, 0.95));
        values.set("setup_s", median(after_warmup(&setups)));
        values.set("peak_rss_mb", peak_rss_mb());
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut out = Vec::new();
    let mut finite = true;
    for (name, unit) in names {
        let v = values.0.get(&name).copied().unwrap_or(0.0);
        finite &= v.is_finite();
        println!("{name:<40} {v:>16.6} {unit}");
        out.push((name, if v.is_finite() { v } else { 0.0 }, unit));
    }
    if !finite {
        failed(1, "a metric is not a finite number");
    }
    finish(&out, true);
}
