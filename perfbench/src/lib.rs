//! A serial, layer-attributed benchmark over the Figure 9 suite.
//!
//! One run takes a workload and a seed, sets up, makes one untimed
//! warm-up pass, then makes timed passes until its time is up. A pass is
//! one serial sweep over the workload's ops, in an order the seed
//! shuffles. Every op calls a public pipeline entry point and is checked:
//! a compile must succeed, `check_full` must accept an `rg` compilation,
//! and a run must return the pinned reference result. Every compile is
//! cold; nothing goes through the bench crate's disk cache.
//!
//! End-to-end metrics come from untraced passes. With tracing on, passes
//! alternate between untraced and traced; a traced op records a span
//! around each layer entry point it calls (see [`trace`]), and the
//! per-layer metrics come from those spans and from the counters the
//! public API already returns. `README.md` in this directory explains the
//! workloads and which metric should move on which.

pub mod reference;
pub mod trace;

use reference::Reference;
use rml::programs::Program;
use rml::{Compiled, ExecOpts, Json, Strategy};
use rml_eval::{GcPolicy, VerifyLevel};
use rml_runtime::Xorshift64;
use std::collections::BTreeMap;
use std::time::Instant;
use trace::{OpTime, Tracer};

/// Setup rounds per run; `setup_s` takes their median.
const SETUP_ROUNDS: usize = 3;
/// The `gc` workload collects every this many machine steps.
const GC_PERIOD: u64 = 1024;
/// Seed of the `gc` workload's stress schedule. Fixed, so that the
/// benchmark seed changes only the op order and never a count.
const GC_STRESS_SEED: u64 = 1;

/// Usage line for diagnostics.
pub const USAGE: &str = "usage: perfbench --workload compile|run|gc [--seed N] [--seconds N] \
                         [--trace 0|1]\n       perfbench --record-reference";

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Compile every program under `rg`, `rg-` and `r`, then `check_full`
    /// each `rg` compilation. Nothing is executed.
    Compile,
    /// Execute every program under `rg`, `rg-`, `r` and `baseline` with
    /// the default collector policy.
    Run,
    /// Execute every `rg` program with a collection every
    /// [`GC_PERIOD`] steps, verification off.
    Gc,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Compile, Workload::Run, Workload::Gc];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Run => "run",
            Workload::Gc => "gc",
        }
    }

    /// The run variants of one pass.
    fn variants(self) -> &'static [Variant] {
        match self {
            Workload::Compile => &[],
            Workload::Run => &[Variant::Rg, Variant::RgMinus, Variant::R, Variant::Baseline],
            Workload::Gc => &[Variant::Stress],
        }
    }
}

const STRATEGIES: [Strategy; 3] = [Strategy::Rg, Strategy::RgMinus, Strategy::R];

fn strategy_label(s: Strategy) -> &'static str {
    match s {
        Strategy::Rg => "rg",
        Strategy::RgMinus => "rg-",
        Strategy::R => "r",
    }
}

fn strategy_index(s: Strategy) -> usize {
    match s {
        Strategy::Rg => 0,
        Strategy::RgMinus => 1,
        Strategy::R => 2,
    }
}

/// How a run op executes a compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Rg,
    RgMinus,
    R,
    /// The `rg` term on the regionless baseline machine.
    Baseline,
    /// The `rg` term under the `gc` workload's stress schedule.
    Stress,
}

impl Variant {
    fn label(self) -> &'static str {
        match self {
            Variant::Rg => "rg",
            Variant::RgMinus => "rg-",
            Variant::R => "r",
            Variant::Baseline => "baseline",
            Variant::Stress => "rg+stress",
        }
    }

    fn strategy(self) -> Strategy {
        match self {
            Variant::RgMinus => Strategy::RgMinus,
            Variant::R => Strategy::R,
            Variant::Rg | Variant::Baseline | Variant::Stress => Strategy::Rg,
        }
    }

    fn opts(self) -> ExecOpts {
        match self {
            Variant::Baseline => ExecOpts {
                baseline: true,
                ..ExecOpts::default()
            },
            Variant::Stress => ExecOpts {
                gc: Some(GcPolicy::stress_every(GC_PERIOD, GC_STRESS_SEED)),
                verify: Some(VerifyLevel::Off),
                ..ExecOpts::default()
            },
            Variant::Rg | Variant::RgMinus | Variant::R => ExecOpts::default(),
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Shuffles the op order of every pass.
    pub seed: u64,
    /// Timed passes stop before one that would end after this many
    /// seconds.
    pub seconds: f64,
    /// Report per-layer metrics from traced passes instead of the
    /// end-to-end metrics.
    pub trace: bool,
}

/// What the command line asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run a workload.
    Bench(Config),
    /// Print a fresh reference file.
    RecordReference,
}

/// Parses the command line (without the program name).
///
/// # Errors
///
/// A diagnostic for an unknown argument or workload, a missing value, or
/// a value that is not a number.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    if args == ["--record-reference"] {
        return Ok(Command::RecordReference);
    }
    let mut workload = None;
    let mut cfg = Config {
        workload: Workload::Compile,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} `{value}`: not a number ({e})"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| {
                    format!("unknown workload `{value}` (expected compile, run or gc)")
                })?);
            }
            "--seed" => cfg.seed = number()?,
            "--seconds" => cfg.seconds = number()? as f64,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace `{value}`: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(Command::Bench(cfg))
}

/// Counts that the program determines, so every repeat of an op must
/// reproduce them exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    find_ops: u64,
    unions: u64,
    closure_hits: u64,
    closure_recomputes: u64,
    intern_hits: u64,
    intern_misses: u64,
    steps: u64,
    alloc_bytes: u64,
    gc_count: u64,
    copied_bytes: u64,
    peak_bytes: u64,
    pages: u64,
    regions: u64,
}

/// One op as measured.
#[derive(Debug, Clone)]
struct Sample {
    /// `compile fib rg`, `check fib rg`, `run fib rg-`, …
    key: String,
    program: usize,
    variant: Option<Variant>,
    time: OpTime,
    counts: Counts,
    /// Size of the compilation's serialized IR. Not a repeatable count:
    /// region and effect variables are numbered from a process-global
    /// counter, and the IR encodes them as varints, so the same compile
    /// grows by a few bytes each time it is repeated.
    ir_bytes: u64,
    pauses_ns: Vec<u64>,
}

impl Sample {
    /// Self time of the op's calls into layer `name`; `None` if it made
    /// none.
    fn layer_ns(&self, name: &str) -> Option<u64> {
        let mut calls = self
            .time
            .layers
            .iter()
            .filter(|(n, _)| *n == name)
            .peekable();
        calls.peek()?;
        Some(calls.map(|(_, ns)| ns).sum())
    }
}

/// A compiled program per strategy, indexed by [`strategy_index`].
type CompiledSet = Vec<[Option<Compiled>; 3]>;

struct Bench<'a> {
    workload: Workload,
    programs: &'a [Program],
    reference: Reference,
    tracer: Tracer,
    /// First counts seen per op key.
    repeats: BTreeMap<String, Counts>,
    repeat_errors: Vec<String>,
    failures: Vec<String>,
    attempted: u64,
}

impl Bench<'_> {
    /// Counts the op, and notes its failure or checks that its counts
    /// repeat.
    fn record(&mut self, s: Sample, failure: Option<String>) -> Sample {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failures.push(format!("{}: {why}", s.key));
        } else {
            let first = *self.repeats.entry(s.key.clone()).or_insert(s.counts);
            if first != s.counts {
                self.repeat_errors.push(format!(
                    "{}: counts changed between repeats: {first:?} then {:?}",
                    s.key, s.counts
                ));
            }
        }
        s
    }

    fn compile(&mut self, p: usize, strategy: Strategy) -> (Option<Compiled>, Sample) {
        let prog = &self.programs[p];
        let key = format!("compile {} {}", prog.name, strategy_label(strategy));
        let (res, time) = self.tracer.op(&key, |tr| {
            if tr.on {
                compile_by_layer(tr, prog.source, strategy)
            } else {
                rml::compile_with_basis(prog.source, strategy).map_err(|e| e.to_string())
            }
        });
        let mut counts = Counts::default();
        let mut ir_bytes = 0;
        if let Ok(c) = &res {
            let st = &c.output.store_stats;
            counts.find_ops = st.find_ops;
            counts.unions = st.unions;
            counts.closure_hits = st.closure_cache_hits;
            counts.closure_recomputes = st.closure_recomputes;
            counts.intern_hits = st.intern_hits;
            counts.intern_misses = st.intern_misses;
            ir_bytes = rml::emit_ir(c).len() as u64;
        }
        let sample = Sample {
            key,
            program: p,
            variant: None,
            time,
            counts,
            ir_bytes,
            pauses_ns: Vec::new(),
        };
        match res {
            Ok(c) => (Some(c), self.record(sample, None)),
            Err(e) => (None, self.record(sample, Some(e))),
        }
    }

    fn check(&mut self, p: usize, c: Option<&Compiled>) -> Sample {
        let key = format!("check {} rg", self.programs[p].name);
        let (verdict, time) = self.tracer.op(&key, |tr| {
            c.map(|c| tr.layer("core.check", || rml::check_full(c)))
        });
        let failure = match verdict {
            None => Some("no rg compilation to check".to_string()),
            Some(Err(d)) => Some(format!("check_full rejected the rg compilation: {d}")),
            Some(Ok(())) => None,
        };
        let sample = Sample {
            key,
            program: p,
            variant: None,
            time,
            counts: Counts::default(),
            ir_bytes: 0,
            pauses_ns: Vec::new(),
        };
        self.record(sample, failure)
    }

    fn execute(&mut self, p: usize, v: Variant, c: Option<&Compiled>) -> Sample {
        let name = self.programs[p].name;
        let key = format!("run {name} {}", v.label());
        let opts = v.opts();
        let (res, time) = self.tracer.op(&key, |tr| {
            c.map(|c| tr.layer("eval.execute", || rml::execute(c, &opts)))
        });
        let mut sample = Sample {
            key,
            program: p,
            variant: Some(v),
            time,
            counts: Counts::default(),
            ir_bytes: 0,
            pauses_ns: Vec::new(),
        };
        let failure = match res {
            None => Some(format!(
                "no {} compilation to run",
                strategy_label(v.strategy())
            )),
            Some(Err(e)) => Some(format!("execute failed: {e}")),
            Some(Ok(out)) => {
                let h = &out.stats;
                sample.counts = Counts {
                    steps: out.steps,
                    alloc_bytes: h.bytes_allocated,
                    gc_count: h.gc_count,
                    copied_bytes: h.bytes_copied,
                    peak_bytes: h.peak_bytes(),
                    pages: h.pages_allocated,
                    regions: h.regions_created,
                    ..Counts::default()
                };
                sample.pauses_ns = out
                    .pauses
                    .iter()
                    .map(|g| u64::try_from(g.duration.as_nanos()).unwrap_or(u64::MAX))
                    .collect();
                self.reference.verdict(name, &out).err()
            }
        };
        self.record(sample, failure)
    }

    /// Compiles the suite, in suite order, under each strategy the
    /// workload's run ops need.
    fn compile_set(&mut self) -> (CompiledSet, Vec<Sample>) {
        let variants = self.workload.variants();
        let mut samples = Vec::new();
        let set = (0..self.programs.len())
            .map(|p| {
                let mut row: [Option<Compiled>; 3] = Default::default();
                for s in STRATEGIES {
                    if variants.iter().any(|v| v.strategy() == s) {
                        let (c, sample) = self.compile(p, s);
                        row[strategy_index(s)] = c;
                        samples.push(sample);
                    }
                }
                row
            })
            .collect();
        (set, samples)
    }

    /// One pass over the workload's ops, in shuffled order.
    fn pass(&mut self, rng: &mut Xorshift64, set: &CompiledSet) -> Vec<Sample> {
        let n = self.programs.len();
        let mut samples = Vec::new();
        if self.workload == Workload::Compile {
            let mut ops: Vec<(usize, Strategy)> =
                (0..n).flat_map(|p| STRATEGIES.map(|s| (p, s))).collect();
            shuffle(rng, &mut ops);
            let mut fresh: CompiledSet = (0..n).map(|_| Default::default()).collect();
            for (p, s) in ops {
                let (c, sample) = self.compile(p, s);
                fresh[p][strategy_index(s)] = c;
                samples.push(sample);
            }
            let mut checks: Vec<usize> = (0..n).collect();
            shuffle(rng, &mut checks);
            for p in checks {
                let c = fresh[p][strategy_index(Strategy::Rg)].as_ref();
                samples.push(self.check(p, c));
            }
        } else {
            let mut ops: Vec<(usize, Variant)> = (0..n)
                .flat_map(|p| self.workload.variants().iter().map(move |&v| (p, v)))
                .collect();
            shuffle(rng, &mut ops);
            for (p, v) in ops {
                let c = set[p][strategy_index(v.strategy())].as_ref();
                samples.push(self.execute(p, v, c));
            }
        }
        samples
    }
}

fn compile_by_layer(tr: &mut Tracer, src: &str, strategy: Strategy) -> Result<Compiled, String> {
    let source = format!("{}\n{}", rml::basis::BASIS, src);
    let ast = tr
        .layer("syntax.parse", || rml_syntax::parse_program(&source))
        .map_err(|e| format!("parse error: {}", e.msg))?;
    let typed = tr
        .layer("hm.infer", || rml_hm::infer_program(&ast))
        .map_err(|e| format!("type error: {}", e.msg))?;
    let opts = rml_infer::Options {
        strategy,
        style: rml_infer::SpuriousStyle::default(),
    };
    let output = tr
        .layer("infer.regions", || rml_infer::infer(&typed, opts))
        .map_err(|e| format!("region inference error: {}", e.0))?;
    let repr = tr.layer("repr.analyze", || rml_repr::analyze(&output.term));
    Ok(Compiled {
        source,
        typed: Some(typed),
        output,
        repr,
        strategy,
        timings: rml::CompileTimings::default(),
    })
}

fn shuffle<T>(rng: &mut Xorshift64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// The value at quantile `q` of `xs`, interpolating linearly between
/// order statistics; 0 for no samples.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Each op's median wall time over `passes`, in ms, in key order.
fn op_medians_ms(passes: &[Vec<Sample>]) -> Vec<f64> {
    let mut by_key: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in passes.iter().flatten() {
        by_key
            .entry(&s.key)
            .or_default()
            .push(s.time.wall_ns as f64 / 1e6);
    }
    by_key.values().map(|v| median(v)).collect()
}

/// The time of a typical pass: the sum of each op's median wall time.
fn pass_s(passes: &[Vec<Sample>]) -> f64 {
    op_medians_ms(passes).iter().sum::<f64>() / 1e3
}

/// Geometric mean; 0 for no samples.
fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Report {
    /// Every op succeeded and every count repeated exactly.
    pub correct: bool,
    /// Ops attempted, over setup, warm-up and timed passes.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// `(name, value, unit)`: the end-to-end metrics, or with tracing on
    /// the per-layer ones.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Run metadata (workload, seed, passes, host, toolchain, …).
    pub meta: Json,
    /// Per-op breakdown, one entry per program and strategy.
    pub rows: Vec<Json>,
    /// One line per failed op.
    pub failures: Vec<String>,
    /// One line per op whose counts changed between repeats.
    pub repeat_errors: Vec<String>,
    /// The spans of the traced ops.
    pub tracer: Tracer,
}

impl Report {
    /// The contract's last line: `correct`, `attempted`, `failed` and
    /// every metric with its unit.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let m = Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]);
                (name.to_string(), m)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Runs one workload over `programs`, checking runs against the
/// reference file `reference`.
///
/// # Errors
///
/// A malformed reference file, or a host that does not report peak RSS.
pub fn run(cfg: &Config, programs: &[Program], reference: &str) -> Result<Report, String> {
    let mut b = Bench {
        workload: cfg.workload,
        programs,
        reference: Reference::default(),
        tracer: Tracer::new(cfg.trace),
        repeats: BTreeMap::new(),
        repeat_errors: Vec::new(),
        failures: Vec::new(),
        attempted: 0,
    };
    let mut rng = Xorshift64::new(cfg.seed);

    let mut setup_secs = Vec::new();
    let mut setup_rounds = Vec::new();
    let mut set = CompiledSet::new();
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        b.reference = Reference::parse(reference)?;
        let (s, samples) = b.compile_set();
        setup_secs.push(t.elapsed().as_secs_f64());
        set = s;
        setup_rounds.push(samples);
    }
    b.tracer.on = false;
    let t = Instant::now();
    let warmup = b.pass(&mut rng, &set);
    let setup_s = median(&setup_secs) + t.elapsed().as_secs_f64();
    // Peak memory of setting up and sweeping the workload once. Read
    // here, not at the end, so that it does not depend on how many passes
    // fit in the run.
    let rss_mb = max_rss_mb()?;

    let start = Instant::now();
    let mut untraced: Vec<Vec<Sample>> = Vec::new();
    let mut traced: Vec<Vec<Sample>> = Vec::new();
    // Stop before a pass that would end after `seconds`, once there is
    // at least one pass of each kind the run reports on.
    loop {
        b.tracer.on = cfg.trace && untraced.len() > traced.len();
        let t = Instant::now();
        let samples = b.pass(&mut rng, &set);
        let last = t.elapsed().as_secs_f64();
        if b.tracer.on {
            traced.push(samples);
        } else {
            untraced.push(samples);
        }
        let enough = !untraced.is_empty() && (!cfg.trace || !traced.is_empty());
        if enough && start.elapsed().as_secs_f64() + last > cfg.seconds {
            break;
        }
    }
    drop(set);

    let metrics = if cfg.trace {
        let overhead = pass_s(&traced) / pass_s(&untraced);
        // Compile layers are measured in the traced setup rounds where
        // the passes compile nothing.
        let rounds: Vec<&[Sample]> = setup_rounds
            .iter()
            .chain(&traced)
            .map(Vec::as_slice)
            .collect();
        layer_metrics(&rounds, &traced, overhead)
    } else {
        vec![
            ("setup_s", setup_s, "s"),
            ("pass_s", pass_s(&untraced), "s"),
            ("op_ms.geomean", geomean(&op_medians_ms(&untraced)), "ms"),
            ("max_rss_mb", rss_mb, "MiB"),
        ]
    };

    let measured = if cfg.trace { &traced } else { &untraced };
    let rows = rows(measured, cfg.trace);
    let meta = Json::obj([
        ("workload", Json::str(cfg.workload.name())),
        ("seed", Json::UInt(cfg.seed)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("setup_rounds", Json::UInt(SETUP_ROUNDS as u64)),
        ("warmup_passes", Json::UInt(1)),
        ("untraced_passes", Json::UInt(untraced.len() as u64)),
        ("traced_passes", Json::UInt(traced.len() as u64)),
        ("ops_per_pass", Json::UInt(warmup.len() as u64)),
        ("pass_s", Json::Num(pass_s(&untraced))),
        ("setup_s", Json::Num(setup_s)),
        ("max_rss_mb_end", Json::Num(max_rss_mb()?)),
        ("nproc", Json::UInt(nproc())),
        ("git_sha", Json::str(git_sha())),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
        ("profile", Json::str(env!("PERFBENCH_PROFILE"))),
        ("counts_digest", Json::str(counts_digest(&b.repeats))),
    ]);
    let failed = b.failures.len() as u64;
    Ok(Report {
        correct: failed == 0 && b.repeat_errors.is_empty(),
        attempted: b.attempted,
        failed,
        metrics,
        meta,
        rows,
        failures: b.failures,
        repeat_errors: b.repeat_errors,
        tracer: b.tracer,
    })
}

/// Median over `rounds` of a per-round sum, taken over the rounds in
/// which `f` sees at least one op; 0 when no round does.
fn per_round(rounds: &[&[Sample]], f: impl Fn(&Sample) -> Option<f64>) -> f64 {
    let sums: Vec<f64> = rounds
        .iter()
        .filter_map(|r| {
            let xs: Vec<f64> = r.iter().filter_map(&f).collect();
            (!xs.is_empty()).then(|| xs.iter().sum())
        })
        .collect();
    median(&sums)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics. `rounds` holds every traced sweep (setup
/// rounds and passes); `passes` only the traced passes.
fn layer_metrics(
    rounds: &[&[Sample]],
    passes: &[Vec<Sample>],
    trace_overhead: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let ms =
        |name: &'static str| per_round(rounds, move |s| s.layer_ns(name).map(|ns| ns as f64 / 1e6));
    let compiled = |f: fn(&Sample) -> u64| {
        per_round(rounds, move |s| {
            s.key.starts_with("compile ").then(|| f(s) as f64)
        })
    };
    let ran = |f: fn(&Sample) -> f64| per_round(rounds, move |s| s.variant.map(|_| f(s)));
    let mutator_ns = |s: &Sample| {
        let exec = s.layer_ns("eval.execute").unwrap_or(0);
        exec.saturating_sub(s.pauses_ns.iter().sum()) as f64
    };

    let mutator_ms = ran(mutator_ns) / 1e6;
    let steps = ran(|s| s.counts.steps as f64);
    let gc_ms = ran(|s| s.pauses_ns.iter().sum::<u64>() as f64) / 1e6;
    let copied_kb = ran(|s| s.counts.copied_bytes as f64) / 1024.0;
    let pause_p99: Vec<f64> = passes
        .iter()
        .filter_map(|p| {
            let us: Vec<f64> = p
                .iter()
                .flat_map(|s| s.pauses_ns.iter().map(|&ns| ns as f64 / 1e3))
                .collect();
            (!us.is_empty()).then(|| quantile(&us, 0.99))
        })
        .collect();
    let pass_rounds: Vec<&[Sample]> = passes.iter().map(Vec::as_slice).collect();
    let hits = compiled(|s| s.counts.closure_hits);
    let intern_hits = compiled(|s| s.counts.intern_hits);

    vec![
        ("syntax.parse_ms", ms("syntax.parse"), "ms"),
        ("hm.infer_ms", ms("hm.infer"), "ms"),
        ("infer.regions_ms", ms("infer.regions"), "ms"),
        ("repr.analyze_ms", ms("repr.analyze"), "ms"),
        ("infer.find_ops", compiled(|s| s.counts.find_ops), "count"),
        ("infer.unions", compiled(|s| s.counts.unions), "count"),
        (
            "infer.closure_hit_ratio",
            ratio(hits, hits + compiled(|s| s.counts.closure_recomputes)),
            "ratio",
        ),
        (
            "infer.intern_hit_ratio",
            ratio(
                intern_hits,
                intern_hits + compiled(|s| s.counts.intern_misses),
            ),
            "ratio",
        ),
        ("core.check_ms", ms("core.check"), "ms"),
        ("core.ir_kb", compiled(|s| s.ir_bytes) / 1024.0, "KiB"),
        ("eval.mutator_ms", mutator_ms, "ms"),
        ("eval.steps", steps, "count"),
        ("eval.ns_per_step", ratio(mutator_ms * 1e6, steps), "ns"),
        ("eval.rg_over_rgm", rg_over_rgm(passes), "ratio"),
        ("runtime.gc_ms", gc_ms, "ms"),
        (
            "runtime.gc_count",
            ran(|s| s.counts.gc_count as f64),
            "count",
        ),
        ("runtime.gc_pause_us.p99", median(&pause_p99), "us"),
        (
            "runtime.heap_peak_kb",
            ran(|s| s.counts.peak_bytes as f64) / 1024.0,
            "KiB",
        ),
        ("runtime.copied_kb", copied_kb, "KiB"),
        (
            "runtime.copy_mb_per_s",
            ratio(copied_kb / 1024.0, gc_ms / 1e3),
            "MiB/s",
        ),
        (
            "runtime.alloc_kb",
            ran(|s| s.counts.alloc_bytes as f64) / 1024.0,
            "KiB",
        ),
        ("runtime.pages", ran(|s| s.counts.pages as f64), "count"),
        ("runtime.regions", ran(|s| s.counts.regions as f64), "count"),
        (
            "bench.self_ms",
            per_round(&pass_rounds, |s| Some(s.time.self_ns as f64 / 1e6)),
            "ms",
        ),
        ("bench.trace_overhead", trace_overhead, "ratio"),
    ]
}

/// Geometric mean over programs of the median `rg` run time over the
/// median `rg-` run time; 0 when the passes hold no such pair.
fn rg_over_rgm(passes: &[Vec<Sample>]) -> f64 {
    let mut times: BTreeMap<(usize, &str), Vec<f64>> = BTreeMap::new();
    for s in passes.iter().flatten() {
        if let Some(v @ (Variant::Rg | Variant::RgMinus)) = s.variant {
            let ns = s.layer_ns("eval.execute").unwrap_or(s.time.wall_ns);
            times
                .entry((s.program, v.label()))
                .or_default()
                .push(ns as f64);
        }
    }
    let ratios: Vec<f64> = times
        .iter()
        .filter(|((_, v), _)| *v == "rg")
        .filter_map(|((p, _), rg)| Some(median(rg) / median(times.get(&(*p, "rg-"))?)))
        .collect();
    geomean(&ratios)
}

/// One row per op key: sample count, median, minimum and maximum wall
/// time, with tracing on the median self time of each layer, for run ops
/// the median GC pause total, and the op's counts.
fn rows(passes: &[Vec<Sample>], traced: bool) -> Vec<Json> {
    let mut by_key: BTreeMap<&str, Vec<&Sample>> = BTreeMap::new();
    for s in passes.iter().flatten() {
        by_key.entry(s.key.as_str()).or_default().push(s);
    }
    by_key
        .into_iter()
        .map(|(key, ss)| {
            let med =
                |f: &dyn Fn(&Sample) -> f64| median(&ss.iter().map(|s| f(s)).collect::<Vec<_>>());
            let wall: Vec<f64> = ss.iter().map(|s| s.time.wall_ns as f64 / 1e6).collect();
            let mut fields = vec![
                ("op", Json::str(key)),
                ("n", Json::UInt(ss.len() as u64)),
                ("wall_ms", Json::Num(median(&wall))),
                ("wall_ms_min", Json::Num(quantile(&wall, 0.0))),
                ("wall_ms_max", Json::Num(quantile(&wall, 1.0))),
            ];
            if traced {
                let mut layers: Vec<(String, Json)> = Vec::new();
                for &(name, _) in &ss[0].time.layers {
                    let v = med(&|s| s.layer_ns(name).unwrap_or(0) as f64 / 1e6);
                    layers.push((format!("{name}_ms"), Json::Num(v)));
                }
                layers.push((
                    "bench.self_ms".into(),
                    Json::Num(med(&|s| s.time.self_ns as f64 / 1e6)),
                ));
                fields.push(("layers", Json::Obj(layers)));
            }
            if ss[0].variant.is_some() {
                let gc = med(&|s| s.pauses_ns.iter().sum::<u64>() as f64 / 1e6);
                fields.push(("gc_ms", Json::Num(gc)));
            }
            fields.push(("counts", Json::str(format!("{:?}", ss[0].counts))));
            Json::obj(fields)
        })
        .collect()
}

/// FNV-1a over every op's counts, so that runs on different seeds and
/// hosts can be compared at a glance.
fn counts_digest(repeats: &BTreeMap<String, Counts>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (k, c) in repeats {
        for b in format!("{k}={c:?};").bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(0, |n| n.get() as u64)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let Some(r) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    if let Some(sha) = read(r) {
        return sha.trim().to_string();
    }
    read("packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(&format!(" {r}")))
                .map(|l| l[..l.len() - r.len() - 1].to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn max_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
