//! `simbench` — end-to-end and per-layer benchmark of the cimtpu simulator.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload dse-sweep|serve-mixed|fleet-day|fleet-ops|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every input (chip configs, traffic, tenant sets, fault plans) is built
//! here from `--seed`; the simulator is reached only through the public
//! APIs of the `cimtpu-*` crates. An untraced run (`--trace 0`) times the
//! workload for `--seconds` and prints the end-to-end metrics; a traced
//! run (`--trace 1`) drives each layer from the benchmark's own loops
//! with a span around every call and prints the per-layer metrics. The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod claims;
mod dse;
mod fleet;
mod layers;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use stats::Summary;

/// The seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning; both seeds must pass every check.
pub const HELD_OUT_SEED: u64 = 20_261_017;

const WORKLOADS: [&str; 4] = ["dse-sweep", "serve-mixed", "fleet-day", "fleet-ops"];

/// End-to-end metrics (untraced runs), with units. Every workload
/// reports each of them; README.md gives the per-workload definitions.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("sim_req_per_s", "req/s"),
    ("designs_per_s", "designs/s"),
    ("peak_rss_mb", "MB"),
    ("trace_mb", "MB"),
    ("model_p99_ms", "ms"),
    ("model_mj_per_req", "mJ"),
    ("paper_gap_pct", "%"),
];

/// Per-layer metrics (traced runs), with units. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("mapper.searches", "count"),
    ("mapper.search_us", "us"),
    ("core.cache_hit_rate", "ratio"),
    ("core.design_ms", "ms"),
    ("core.sim_new_ms", "ms"),
    ("core.self_ms", "ms"),
    ("pricer.miss_us", "us"),
    ("pricer.hit_ns", "ns"),
    ("engine.steps", "count"),
    ("engine.step_us", "us"),
    ("engine.push_ns", "ns"),
    ("engine.preemptions", "count"),
    ("engine.self_ms", "ms"),
    ("heap.ops", "count"),
    ("heap.op_ns", "ns"),
    ("heap.self_ms", "ms"),
    ("kv.grow_ns", "ns"),
    ("kv.hwm_frac", "ratio"),
    ("prefix.lookups", "count"),
    ("prefix.hit_rate", "ratio"),
    ("prefix.lookup_us", "us"),
    ("router.decisions", "count"),
    ("router.route_ns", "ns"),
    ("router.tracker_ns", "ns"),
    ("router.self_ms", "ms"),
    ("fleet.events", "count"),
    ("fleet.event_ns", "ns"),
    ("fleet.retries", "count"),
    ("fleet.crashes", "count"),
    ("fleet.loop_self_frac", "ratio"),
    ("fleet.loop_self_ms", "ms"),
    ("obs.events", "count"),
    ("obs.event_ns", "ns"),
    ("obs.export_ms", "ms"),
    ("obs.overhead", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.spans", "count"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Fewest timed iterations per run.
const MIN_ITERS: usize = 10;
/// Set-up repetitions before each timed iteration: at least
/// `SETUP_REPS`, then on until the burst has taken `SETUP_BURST_S`, and at
/// most `SETUP_MAX_REPS` (short set-ups would otherwise pile up samples
/// that show in `peak_rss_mb`).
const SETUP_REPS: usize = 2;
const SETUP_BURST_S: f64 = 0.001;
const SETUP_MAX_REPS: usize = 20;

/// The calibration kernel's time on the reference host: one normalized
/// host second is the time this host takes for `1 / CAL_REF_S` kernel
/// passes. The value is the kernel's time on the 2-vCPU development VM
/// in its fast phase.
const CAL_REF_S: f64 = 0.003;
/// Seconds between calibrations.
const CAL_EVERY_S: f64 = 0.1;

/// Seconds one pass of a fixed kernel takes now (best of three passes).
///
/// The kernel sorts 64 Ki pseudo-random words and makes 128 Ki dependent
/// random reads over them. It runs no simulator code, so a change to the
/// simulator cannot move it. The shared host switches between speed
/// phases about 1.5x apart that last from seconds to minutes. The kernel
/// slows down in a slow phase as much as the simulator does, so dividing
/// each sample by its time removes most of that drift. In ten-run trials
/// on the development VM, the raw fleet-day throughput (fastest
/// iteration) spread 36%. The normalized medians spread 1.5-7.5% across
/// the four workloads.
fn calibrate() -> f64 {
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        let mut rng = Rng::new(0);
        let mut words: Vec<u64> = (0..1 << 16).map(|_| rng.next_u64()).collect();
        words.sort_unstable();
        let mut acc = 0u64;
        for _ in 0..1 << 17 {
            acc ^= words[((rng.next_u64() ^ acc) & 0xFFFF) as usize];
        }
        std::hint::black_box(acc);
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Host timings of one untraced run, in normalized seconds (see
/// [`calibrate`]).
pub struct Timings {
    /// One sample per set-up repetition.
    pub setup: Summary,
    /// One sample per timed iteration.
    pub iters: Summary,
}

/// Everything one workload run reports: metrics by name, the iteration
/// tally behind `error_rate`, and the exact work counts of each iteration.
#[derive(Debug, Default)]
pub struct Output {
    metrics: BTreeMap<String, (f64, String)>,
    attempted: u64,
    failed: u64,
    /// Work counts of the first iteration; later iterations must match.
    counts: Option<Vec<(&'static str, u64)>>,
}

impl Output {
    /// Records a metric and prints it.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        println!("  {name:<22} {value:>16.6} {unit}");
        self.metrics
            .insert(name.to_owned(), (value, unit.to_owned()));
    }

    /// Records a host timing metric from its samples, printing its
    /// median with quartiles and the sample count.
    pub fn timing(&mut self, name: &str, s: Summary, unit: &str) {
        println!(
            "  {name:<22} {:>16.6} {unit}  (q1 {:.6}, q3 {:.6}, n={})",
            s.median, s.q1, s.q3, s.n
        );
        self.metrics
            .insert(name.to_owned(), (s.median, unit.to_owned()));
    }

    /// Tallies one iteration (or check pass) and whether all its output
    /// checks held.
    pub fn iteration(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("simbench: check failed: {what}");
        }
    }

    /// Records an iteration's exact work counts: the first iteration sets
    /// them, and every later one must repeat them exactly (a mismatch
    /// fails that iteration).
    pub fn counts(&mut self, counts: Vec<(&'static str, u64)>) -> bool {
        match &self.counts {
            None => {
                let mut line = String::from("  work counts per iteration:");
                for (k, v) in &counts {
                    let _ = write!(line, " {k}={v}");
                }
                println!("{line}");
                self.counts = Some(counts);
                true
            }
            Some(first) => *first == counts,
        }
    }

    /// Times `run` until `seconds` have passed (and at least
    /// [`MIN_ITERS`] times) and checks every result with `check` outside
    /// the timed region: the check returns whether the output is correct
    /// and the iteration's exact work counts, which must repeat. A short
    /// burst of timed `setup` repetitions precedes every iteration, so
    /// set-up samples are spread over the whole run like the iterations.
    /// Every sample is normalized to the reference host speed (see
    /// [`calibrate`]).
    pub fn measure<S, T>(
        &mut self,
        seconds: f64,
        what: &str,
        mut setup: impl FnMut() -> Result<S, String>,
        mut run: impl FnMut() -> Result<T, String>,
        mut check: impl FnMut(&T) -> (bool, Vec<(&'static str, u64)>),
    ) -> Result<Timings, String> {
        let (mut setups, mut walls, mut raw, mut cals) = (vec![], vec![], vec![], vec![]);
        let mut cal = (calibrate(), Instant::now());
        let start = Instant::now();
        while walls.len() < MIN_ITERS || start.elapsed().as_secs_f64() < seconds {
            if cal.1.elapsed().as_secs_f64() >= CAL_EVERY_S {
                cal = (calibrate(), Instant::now());
            }
            cals.push(cal.0);
            let scale = CAL_REF_S / cal.0;
            let burst = Instant::now();
            for rep in 0.. {
                if rep >= SETUP_MAX_REPS
                    || (rep >= SETUP_REPS && burst.elapsed().as_secs_f64() >= SETUP_BURST_S)
                {
                    break;
                }
                let t = Instant::now();
                let inputs = setup()?;
                setups.push(t.elapsed().as_secs_f64() * scale);
                drop(inputs);
            }
            let t = Instant::now();
            let result = run();
            let wall = t.elapsed().as_secs_f64();
            raw.push(wall);
            walls.push(wall * scale);
            let ok = match result {
                Ok(v) => {
                    let (ok, counts) = check(&v);
                    let same_counts = self.counts(counts);
                    ok && same_counts
                }
                Err(e) => {
                    eprintln!("simbench: {e}");
                    false
                }
            };
            self.iteration(what, ok);
        }
        let (raw, cals) = (Summary::of(&raw), Summary::of(&cals));
        println!(
            "  raw iteration wall: median {:.6} s (q1 {:.6}, q3 {:.6}); calibration kernel: \
             median {:.3} ms (q1 {:.3}, q3 {:.3}; reference {:.3} ms)",
            raw.median,
            raw.q1,
            raw.q3,
            cals.median * 1e3,
            cals.q1 * 1e3,
            cals.q3 * 1e3,
            CAL_REF_S * 1e3
        );
        Ok(Timings {
            setup: Summary::of(&setups),
            iters: Summary::of(&walls),
        })
    }

    /// Records every end-to-end metric of an untraced run.
    pub fn end_to_end(&mut self, e: EndToEnd) -> Result<(), String> {
        self.timing("setup_s", e.timings.setup, "s");
        self.timing("sim_req_per_s", e.timings.iters.rate(e.requests), "req/s");
        self.timing(
            "designs_per_s",
            e.timings.iters.rate(e.designs),
            "designs/s",
        );
        self.metric("peak_rss_mb", peak_rss_mb()?, "MB");
        self.metric("trace_mb", e.export_mb, "MB");
        self.metric("model_p99_ms", e.p99_ms, "ms");
        self.metric("model_mj_per_req", e.mj_per_req, "mJ");
        self.metric("paper_gap_pct", e.claims.gap_pct(), "%");
        Ok(())
    }
}

/// What an untraced run measured; README.md defines each field per
/// workload.
pub struct EndToEnd {
    pub timings: Timings,
    /// Simulated requests completed per iteration.
    pub requests: f64,
    /// Design points simulated per iteration.
    pub designs: f64,
    /// Size of the run's exported output, in MB.
    pub export_mb: f64,
    pub p99_ms: f64,
    pub mj_per_req: f64,
    pub claims: claims::Claims,
}

/// Wall seconds of one call.
pub fn wall<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let v = f();
    (t.elapsed().as_secs_f64(), v)
}

/// The process's peak resident set in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Size of an exported text in MB (10^6 bytes).
pub fn mb(text: &str) -> f64 {
    text.len() as f64 / 1e6
}

/// Writes a traced run's spans, after all timing is done, to
/// `$CARGO_TARGET_DIR/simbench/spans-<workload>.tsv` (default target
/// directory `simbench/target`), and records how many spans were taken.
pub fn write_spans(workload: &str, tracer: &spans::Tracer, out: &mut Output) -> Result<(), String> {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || std::path::PathBuf::from("simbench/target"),
            std::path::PathBuf::from,
        )
        .join("simbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{workload}.tsv"));
    let tsv = tracer.to_tsv();
    std::fs::write(&path, &tsv).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  spans written to {}", path.display());
    out.metric("bench.spans", tracer.recorded() as f64, "count");
    Ok(())
}

/// A deterministic generator for benchmark inputs (splitmix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_B5EE_D000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn usage() -> String {
    format!(
        "usage: simbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]\n\
         default seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED}",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                ctx.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(ctx.seconds.is_finite() && ctx.seconds > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                ctx.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}\n{}", usage()));
    }
    Ok((workload, ctx))
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Output, String> {
    let mut out = Output::default();
    println!(
        "== {name} seed={} seconds={} trace={} threads=1 (host cpus: {})",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    match name {
        "dse-sweep" => dse::run(ctx, &mut out)?,
        "serve-mixed" => serve::run(ctx, &mut out)?,
        "fleet-day" => fleet::run_day(ctx, &mut out)?,
        "fleet-ops" => fleet::run_ops(ctx, &mut out)?,
        _ => unreachable!("workload names are validated"),
    }
    let expected: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    for (metric, unit) in expected {
        match out.metrics.get(*metric) {
            Some((v, u)) if u == unit && v.is_finite() => {}
            // Per-layer metrics of layers this workload does not drive.
            None if ctx.trace => out.metric(metric, 0.0, unit),
            got => {
                return Err(format!(
                    "{name}: metric {metric} missing or malformed: {got:?}"
                ))
            }
        }
    }
    out.metrics
        .retain(|k, _| expected.iter().any(|(m, _)| m == k));
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  error_rate             {error_rate:>16.6} ({} failed of {} attempted)",
        out.failed, out.attempted
    );
    Ok(out)
}

fn json_line(outs: &[(&str, Output)]) -> String {
    let qualify = outs.len() > 1;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for (workload, out) in outs {
        attempted += out.attempted;
        failed += out.failed;
        for (name, (value, unit)) in &out.metrics {
            let key = if qualify {
                format!("{workload}/{name}")
            } else {
                name.clone()
            };
            metrics.push(format!(
                "\"{key}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    )
}

fn main() {
    let (workload, ctx) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // One benchmark thread: pin the simulator's sweep pool to match, and
    // keep mapping caches cold and in memory (no cross-process cache).
    std::env::set_var("CIMTPU_WORKERS", "1");
    std::env::remove_var(cimtpu_core::CACHE_DIR_ENV);
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    let mut outs = Vec::new();
    for name in names {
        match run_workload(name, &ctx) {
            Ok(out) => outs.push((name, out)),
            Err(e) => {
                eprintln!("simbench: {name}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("{}", json_line(&outs));
}
