//! The timed runs: set-up, the measured closed-loop phase, and the
//! output check of each workload against the served binaries.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atlas_serve::{PredictRequest, StatsResponse};

use crate::check::{self, DeltaReference, PredictReference, Watts};
use crate::client::{self, Conn, OpRecord};
use crate::ops::{self, FleetOp, CYCLES};
use crate::report::{mean, median, quantile, Metric, PhaseCount};
use crate::server::{self, serve_args, Proc};
use crate::{Bench, Workload, MODEL};

/// Set-ups per run at least, each one `setup_s` sample.
const SETUP_REPEATS: usize = 3;
/// Segments of the measured phase on `cold`, `warm`, and `fleet`.
const SEGMENTS: u64 = 5;
/// Ops whose replies are checked against a freshly computed reference,
/// on workloads where every op has its own reference.
const CHECK_SAMPLE: usize = 8;
/// Client connections of `warm` and of priming.
const CONNS: usize = 2;
/// Client connections and server workers of `cold`. One, so a core stays
/// free for the client and anything else on the machine: on two vCPUs, a
/// process spinning a fifth of one core slowed two-connection `cold` ops
/// by about 7% and one-connection ops by about 2%, and the
/// two-connection median latency's interquartile range over ten seeds
/// reached 0.26 of the median.
pub const COLD_CONNS: usize = 1;
/// `--cache-mb` of the `cold` server: every op misses, so a budget that
/// fills within the first ops keeps its memory a steady state rather
/// than a function of how many ops a run completed.
pub const COLD_CACHE_MB: usize = 16;
const MB: usize = 1 << 20;

/// Server-side counters summed over the served processes, taken from
/// their `stats` verb.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub embedding_hits: u64,
    pub embedding_misses: u64,
    pub design_hits: u64,
    pub design_misses: u64,
    pub embeddings_computed: u64,
    pub requests: u64,
    pub errors: u64,
    pub embedding_bytes: usize,
}

impl Counters {
    fn of(stats: &[StatsResponse]) -> Counters {
        let mut c = Counters::default();
        for s in stats {
            c.embedding_hits += s.embedding_cache.hits;
            c.embedding_misses += s.embedding_cache.misses;
            c.design_hits += s.design_cache.hits;
            c.design_misses += s.design_cache.misses;
            c.embeddings_computed += s.embeddings_computed;
            c.requests += s.requests;
            c.errors += s.errors;
            c.embedding_bytes += s.embedding_cache.weight;
        }
        c
    }

    /// Counter growth from `before` to `self`; occupancy is `self`'s.
    fn since(&self, before: &Counters) -> Counters {
        Counters {
            embedding_hits: self.embedding_hits - before.embedding_hits,
            embedding_misses: self.embedding_misses - before.embedding_misses,
            design_hits: self.design_hits - before.design_hits,
            design_misses: self.design_misses - before.design_misses,
            embeddings_computed: self.embeddings_computed - before.embeddings_computed,
            requests: self.requests - before.requests,
            errors: self.errors - before.errors,
            embedding_bytes: self.embedding_bytes,
        }
    }

    fn add(&mut self, other: &Counters) {
        self.embedding_hits += other.embedding_hits;
        self.embedding_misses += other.embedding_misses;
        self.design_hits += other.design_hits;
        self.design_misses += other.design_misses;
        self.embeddings_computed += other.embeddings_computed;
        self.requests += other.requests;
        self.errors += other.errors;
        self.embedding_bytes = self.embedding_bytes.max(other.embedding_bytes);
    }
}

/// Everything one untraced run measured.
pub struct Measured {
    /// Measured-phase ops with their verdicts, in stream order.
    pub records: Vec<OpRecord>,
    pub ok: Vec<bool>,
    /// Wall time of the measured phase (session restarts excluded).
    pub wall_s: f64,
    /// One sample per set-up (spawn to ready, plus priming).
    pub setup_s: Vec<f64>,
    /// Peak RSS of the server processes, MiB.
    pub rss_mb: f64,
    pub setup_count: PhaseCount,
    pub count: PhaseCount,
    /// Server counters over the measured phase.
    pub counters: Counters,
    pub server_flags: String,
    /// One-second windows of the measured phase.
    pub windows: Vec<Window>,
}

impl Measured {
    fn new(records: Vec<OpRecord>, ok: Vec<bool>) -> Measured {
        let failed = ok.iter().filter(|&&ok| !ok).count() as u64;
        Measured {
            count: PhaseCount {
                sent: records.len() as u64,
                ok: records.len() as u64 - failed,
                failed,
            },
            records,
            ok,
            wall_s: 0.0,
            setup_s: Vec::new(),
            rss_mb: 0.0,
            setup_count: PhaseCount::default(),
            counters: Counters::default(),
            server_flags: String::new(),
            windows: Vec::new(),
        }
    }

    /// The windows the metrics use: every window in which the host took
    /// at most `STEAL_LIMIT` of the CPU time, then the next least-stolen
    /// ones until they hold `MIN_OPS` ops (or all windows are used).
    /// Time the host takes is no property of the program, and on a shared
    /// host it comes in bursts that would otherwise decide the numbers.
    fn used_windows(&self) -> Vec<Window> {
        let mut ranked = self.windows.clone();
        ranked.sort_by(|a, b| a.steal.total_cmp(&b.steal));
        let mut used = Vec::new();
        let mut ops = 0;
        for w in ranked {
            if w.steal > STEAL_LIMIT && ops >= MIN_OPS {
                break;
            }
            ops += self
                .records
                .iter()
                .filter(|r| r.end >= w.start && r.end < w.end)
                .count();
            used.push(w);
        }
        used
    }

    /// `(used windows, all windows, median steal share)` for the stamp.
    pub fn window_note(&self) -> (usize, usize, f64) {
        let steal: Vec<f64> = self.windows.iter().map(|w| w.steal).collect();
        (
            self.used_windows().len(),
            self.windows.len(),
            median(&steal),
        )
    }

    /// Predicted cycles of successful ops inside `w`. Each op counts with
    /// the share of its round trip that falls inside the window, so a
    /// window's rate is not quantized to whole ops.
    fn cycles_in(&self, w: &Window) -> f64 {
        let mut cycles = 0.0;
        for (r, &good) in self.records.iter().zip(&self.ok) {
            let took = Duration::from_secs_f64(r.latency_ms / 1e3);
            let began = r.end.checked_sub(took).unwrap_or(r.end);
            let inside = r
                .end
                .min(w.end)
                .saturating_duration_since(began.max(w.start));
            if good && r.latency_ms > 0.0 {
                cycles += CYCLES as f64 * inside.as_secs_f64() / took.as_secs_f64();
            }
        }
        cycles
    }

    /// Client-observed op latencies; a failed op is slower than any limit.
    pub fn latencies(&self) -> Vec<f64> {
        self.records
            .iter()
            .zip(&self.ok)
            .map(|(r, &ok)| if ok { r.latency_ms } else { f64::INFINITY })
            .collect()
    }

    pub fn ok_latencies(&self) -> Vec<f64> {
        self.records
            .iter()
            .zip(&self.ok)
            .filter(|(_, &ok)| ok)
            .map(|(r, _)| r.latency_ms)
            .collect()
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order, over the used
    /// windows: latency quantiles of the ops that ended in them, and the
    /// rate and CPU cost as medians over them.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let used = self.used_windows();
        let mut rate = Vec::new();
        let mut cpu = Vec::new();
        for w in &used {
            let cycles = self.cycles_in(w);
            rate.push(cycles / (w.end - w.start).as_secs_f64());
            if cycles > 0.0 {
                cpu.push(w.cpu_ms / (cycles / 1000.0));
            }
        }
        let lat: Vec<f64> = self
            .records
            .iter()
            .zip(&self.ok)
            .filter(|(r, _)| used.iter().any(|w| r.end >= w.start && r.end < w.end))
            .map(|(r, &ok)| if ok { r.latency_ms } else { f64::INFINITY })
            .collect();
        vec![
            Metric {
                name: "latency_p50_ms",
                unit: "ms",
                value: quantile(&lat, 0.5),
            },
            Metric {
                name: "latency_p90_ms",
                unit: "ms",
                value: quantile(&lat, 0.9),
            },
            Metric {
                name: "cycles_per_s",
                unit: "cycles/s",
                value: median(&rate),
            },
            Metric {
                name: "success_ratio",
                unit: "ratio",
                value: self.count.ok as f64 / self.count.sent.max(1) as f64,
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: median(&self.setup_s),
            },
            Metric {
                name: "server_rss_mb",
                unit: "MB",
                value: self.rss_mb,
            },
            Metric {
                name: "server_cpu_ms_per_kcycle",
                unit: "ms",
                value: median(&cpu),
            },
        ]
    }
}

/// Run one workload's set-up and measured phase, then check its replies.
pub fn measure(bench: &Bench, workload: Workload) -> Result<Measured, String> {
    let measured = match workload {
        Workload::Cold => run_cold(bench),
        Workload::Warm => run_warm(bench),
        Workload::Edit => run_edit(bench),
        Workload::Fleet => run_fleet(bench),
    }?;
    eprintln!(
        "{}: {} ops ({} failed) in {:.2}s over {} set-ups, p50 {:.3} ms, p90 {:.3} ms, setup {:.3}s, {:?}",
        workload.name(),
        measured.count.sent,
        measured.count.failed,
        measured.wall_s,
        measured.setup_s.len(),
        quantile(&measured.latencies(), 0.5),
        quantile(&measured.latencies(), 0.9),
        median(&measured.setup_s),
        measured.counters,
    );
    if measured.count.sent == 0 {
        return Err("the measured phase completed no op".to_owned());
    }
    Ok(measured)
}

/// The processes of one set-up, and the address the client talks to.
struct Served {
    procs: Vec<Proc>,
    /// Where ops go (the server, or the proxy in front of the shards).
    addr: String,
    /// Servers whose `stats` count the work (the shards in `fleet`).
    stats_addrs: Vec<String>,
}

impl Served {
    fn counters(&self) -> Result<Counters, String> {
        let stats: Vec<StatsResponse> = self
            .stats_addrs
            .iter()
            .map(|a| client::stats(a))
            .collect::<Result<_, _>>()?;
        Ok(Counters::of(&stats))
    }
}

/// Op index stride between segments, so every segment continues the
/// seed's op stream at its own offset.
const SEGMENT_STRIDE: u64 = 1 << 32;

/// A measured phase split into segments, each on a freshly set-up
/// server: run-to-run differences of one server process (thread
/// placement, memory layout) average out over the segments, and every
/// segment's set-up is one `setup_s` sample.
struct Segmented {
    /// `(segment, record)` in segment order.
    records: Vec<(u64, OpRecord)>,
    wall: Duration,
    setup_s: Vec<f64>,
    setup_count: PhaseCount,
    rss_mb: f64,
    counters: Counters,
    windows: Vec<Window>,
}

/// One second of the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    start: Instant,
    end: Instant,
    /// Server CPU time spent inside the window, ms.
    cpu_ms: f64,
    /// Share of the machine's CPU time the host took (steal) inside the
    /// window.
    steal: f64,
}

/// Windows in which the host took at most this share of the machine's
/// CPU time are always used.
const STEAL_LIMIT: f64 = 0.05;
/// Ops the used windows must hold at least, so the 90th percentile has
/// ten samples beyond it.
const MIN_OPS: usize = 100;

/// Length of one measurement window.
const WINDOW: Duration = Duration::from_secs(1);

/// Run `lines` in a closed loop against `served` until `deadline` (or
/// `limit`), sampling the servers' CPU at every window boundary.
fn measured_loop<L>(
    served: &Served,
    conns: usize,
    deadline: Instant,
    limit: Option<u64>,
    lines: L,
) -> Result<(Vec<OpRecord>, Vec<Window>), String>
where
    L: Fn(u64) -> Vec<String> + Sync,
{
    let pids: Vec<u32> = served.procs.iter().map(Proc::pid).collect();
    let mark = || {
        let cpu: f64 = pids.iter().map(|&p| server::cpu_ms(p)).sum();
        (Instant::now(), cpu, server::steal_ticks())
    };
    let stop = AtomicBool::new(false);
    let (records, marks) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut marks = vec![mark()];
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
                if marks.last().is_some_and(|m| m.0.elapsed() >= WINDOW) {
                    marks.push(mark());
                }
            }
            marks.push(mark());
            marks
        });
        let records = client::closed_loop(&served.addr, conns, deadline, limit, lines);
        stop.store(true, Ordering::Relaxed);
        (records, sampler.join().expect("sampler thread"))
    });
    // Whole windows only: a cut-off tail would weigh a few ops as much
    // as a full second.
    let capacity = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
        * server::clock_ticks() as f64;
    let windows = marks
        .windows(2)
        .filter(|w| w[1].0 - w[0].0 >= WINDOW)
        .map(|w| Window {
            start: w[0].0,
            end: w[1].0,
            cpu_ms: w[1].1 - w[0].1,
            steal: (w[1].2 - w[0].2) as f64 / (capacity * (w[1].0 - w[0].0).as_secs_f64()),
        })
        .collect();
    Ok((records?, windows))
}

/// Run `segments` segments (or, with `limit`, as many as the time
/// budget needs) of `conns` closed-loop connections. `setup` brings up
/// and primes segment `k`'s servers; `lines` renders op `i` of segment
/// `k`.
fn segmented<S, L>(
    bench: &Bench,
    segments: u64,
    conns: usize,
    limit: Option<u64>,
    setup: S,
    lines: L,
) -> Result<Segmented, String>
where
    S: Fn(u64) -> Result<(Served, PhaseCount), String>,
    L: Fn(u64, u64) -> Vec<String> + Sync,
{
    let budget = Duration::from_secs_f64(bench.seconds);
    let mut out = Segmented {
        records: Vec::new(),
        wall: Duration::ZERO,
        setup_s: Vec::new(),
        setup_count: PhaseCount::default(),
        rss_mb: 0.0,
        counters: Counters::default(),
        windows: Vec::new(),
    };
    let mut k = 0u64;
    while out.wall < budget || out.setup_s.len() < SETUP_REPEATS {
        let t = Instant::now();
        let (served, primed) = setup(k)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        out.setup_count.sent += primed.sent;
        out.setup_count.ok += primed.ok;
        out.setup_count.failed += primed.failed;
        if out.wall < budget {
            // Fixed-length segments; a session cut by `limit` hands the
            // rest of the budget to the next one.
            let left = budget - out.wall;
            let length = if limit.is_some() {
                left
            } else {
                (budget / segments as u32).min(left)
            };
            let before = served.counters()?;
            let t = Instant::now();
            let (records, windows) =
                measured_loop(&served, conns, t + length, limit, |i| lines(k, i))?;
            out.wall += t.elapsed();
            out.windows.extend(windows);
            out.counters.add(&served.counters()?.since(&before));
            out.rss_mb = out
                .rss_mb
                .max(served.procs.iter().map(Proc::peak_rss_mb).sum());
            out.records.extend(records.into_iter().map(|r| (k, r)));
        }
        k += 1;
    }
    Ok(out)
}

impl Segmented {
    /// The measured result, given each record's verdict.
    fn into_measured(self, ok: Vec<bool>, server_flags: String) -> Measured {
        let mut m = Measured::new(self.records.into_iter().map(|(_, r)| r).collect(), ok);
        m.wall_s = self.wall.as_secs_f64();
        m.setup_s = self.setup_s;
        m.setup_count = self.setup_count;
        m.rss_mb = self.rss_mb;
        m.counters = self.counters;
        m.server_flags = server_flags;
        m.windows = self.windows;
        m
    }
}

/// Send each request once, over `CONNS` connections, and fail unless
/// every reply is a prediction.
fn prime(addr: &str, keys: &[PredictRequest]) -> Result<PhaseCount, String> {
    let records = client::closed_loop(
        addr,
        CONNS,
        Instant::now() + Duration::from_secs(600),
        Some(keys.len() as u64),
        |i| vec![ops::predict_line(&keys[i as usize])],
    )?;
    let ok = records
        .iter()
        .filter(|r| matches!(&r.replies, Ok(l) if check::parse_predict(&l[0]).is_ok()))
        .count() as u64;
    if ok != keys.len() as u64 {
        return Err(format!("priming answered {ok} of {} keys", keys.len()));
    }
    Ok(PhaseCount {
        sent: keys.len() as u64,
        ok,
        failed: 0,
    })
}

/// Evenly spaced record positions to check, at most `CHECK_SAMPLE`.
fn sample_positions(len: usize) -> Vec<usize> {
    let n = len.min(CHECK_SAMPLE);
    (0..n).map(|j| j * len / n.max(1)).collect()
}

/// Verdict of a single-line `predict` op against an optional reference.
fn predict_verdict(record: &OpRecord, reference: Option<&Watts>) -> bool {
    let Ok(lines) = &record.replies else {
        return false;
    };
    match check::parse_predict(&lines[0]) {
        Ok(reply) => reference.is_none_or(|r| check::same_bits(&Watts::from(&reply), r)),
        Err(_) => false,
    }
}

/// One `serve` process as a segment's whole topology.
fn single(bench: &Bench, args: &[String]) -> Result<Served, String> {
    let proc = Proc::spawn(&bench.bin.join("serve"), args)?;
    let addr = proc.addr.clone();
    Ok(Served {
        procs: vec![proc],
        addr: addr.clone(),
        stats_addrs: vec![addr],
    })
}

fn run_cold(bench: &Bench) -> Result<Measured, String> {
    let extra = ["--cache-mb".to_owned(), COLD_CACHE_MB.to_string()];
    let args = serve_args(&bench.registry, MODEL, COLD_CONNS, &extra);
    let seed = bench.seed;
    let run = segmented(
        bench,
        SEGMENTS,
        COLD_CONNS,
        None,
        |_| Ok((single(bench, &args)?, PhaseCount::default())),
        |k, i| {
            vec![ops::predict_line(&ops::cold_op(
                seed,
                k * SEGMENT_STRIDE + i,
            ))]
        },
    )?;

    let mut reference = PredictReference::new(&bench.saved.model, &bench.saved.config);
    let sampled = sample_positions(run.records.len());
    let mut ok = Vec::with_capacity(run.records.len());
    for (pos, (k, record)) in run.records.iter().enumerate() {
        let expected = if sampled.contains(&pos) {
            let op = ops::cold_op(seed, k * SEGMENT_STRIDE + record.index);
            Some(reference.predict(&op)?)
        } else {
            None
        };
        ok.push(predict_verdict(record, expected.as_ref()));
    }
    Ok(run.into_measured(ok, args.join(" ")))
}

fn run_warm(bench: &Bench) -> Result<Measured, String> {
    let args = serve_args(&bench.registry, MODEL, CONNS, &[]);
    let keys = ops::warm_keys(bench.seed);
    let seed = bench.seed;
    let run = segmented(
        bench,
        SEGMENTS,
        CONNS,
        None,
        |_| {
            let served = single(bench, &args)?;
            let primed = prime(&served.addr, &keys)?;
            let computed = served.counters()?.embeddings_computed;
            if computed != keys.len() as u64 {
                return Err(format!(
                    "warm priming computed {computed} embeddings for {} keys",
                    keys.len()
                ));
            }
            Ok((served, primed))
        },
        |k, i| {
            vec![ops::predict_line(
                &keys[ops::warm_op(seed, k * SEGMENT_STRIDE + i)],
            )]
        },
    )?;

    // Every reply is checked: the key set is small enough to reference
    // in full.
    let mut reference = PredictReference::new(&bench.saved.model, &bench.saved.config);
    let expected: Vec<Watts> = keys
        .iter()
        .map(|k| reference.predict(k))
        .collect::<Result<_, _>>()?;
    let ok = run
        .records
        .iter()
        .map(|(k, r)| {
            let key = ops::warm_op(seed, k * SEGMENT_STRIDE + r.index);
            predict_verdict(r, Some(&expected[key]))
        })
        .collect();
    Ok(run.into_measured(ok, args.join(" ")))
}

fn edit_verdict(record: &OpRecord, reference: Option<&Watts>) -> bool {
    let Ok(lines) = &record.replies else {
        return false;
    };
    if lines.len() != 2 || !lines[0].contains("\"load_design\"") {
        return false;
    }
    match check::parse_delta(&lines[1]) {
        Ok(reply) => reference.is_none_or(|r| check::same_bits(&Watts::from(&reply), r)),
        Err(_) => false,
    }
}

fn run_edit(bench: &Bench) -> Result<Measured, String> {
    let args = serve_args(&bench.registry, MODEL, 1, &[]);
    let seed = bench.seed;
    // Each segment is one session: a fresh server, its base revision
    // uploaded and predicted, then up to the upload cap of revisions.
    let sessions: std::sync::Mutex<HashMap<u64, Arc<Vec<ops::EditOp>>>> = Default::default();
    let session = |k: u64| -> Result<Arc<Vec<ops::EditOp>>, String> {
        if let Some(ops) = sessions.lock().expect("sessions lock").get(&k) {
            return Ok(ops.clone());
        }
        let ops = Arc::new(ops::edit_session(seed, k, ops::EDIT_SESSION_REVISIONS)?);
        sessions
            .lock()
            .expect("sessions lock")
            .insert(k, ops.clone());
        Ok(ops)
    };
    let run = segmented(
        bench,
        1,
        1,
        Some(ops::EDIT_SESSION_REVISIONS as u64),
        |k| {
            session(k)?;
            let served = single(bench, &args)?;
            let (name, verilog) = ops::edit_base(seed, k)?;
            let mut conn = Conn::open(&served.addr)?;
            let upload = conn.roundtrip(&ops::upload_line(&name, &verilog))?;
            let base = PredictRequest::new(name.as_str(), "W1", CYCLES);
            let predict = conn.roundtrip(&ops::predict_line(&base))?;
            if !upload.contains("\"load_design\"") || check::parse_predict(&predict).is_err() {
                return Err(format!(
                    "edit session {k} base failed: {upload} / {predict}"
                ));
            }
            let primed = PhaseCount {
                sent: 1,
                ok: 1,
                failed: 0,
            };
            Ok((served, primed))
        },
        |k, i| {
            let ops = session(k).expect("session built during its set-up");
            let op = &ops[i as usize];
            vec![
                ops::upload_line(&op.name, &op.verilog),
                ops::delta_line(&op.delta),
            ]
        },
    )?;

    // Reference: a full predict of each sampled revision on an
    // in-process service.
    let reference = DeltaReference::new(bench.saved.clone());
    let sampled = sample_positions(run.records.len());
    let mut ok = Vec::with_capacity(run.records.len());
    for (pos, (k, record)) in run.records.iter().enumerate() {
        let expected = if sampled.contains(&pos) {
            let ops = session(*k)?;
            let op = &ops[record.index as usize];
            Some(reference.predict(&op.name, &op.verilog, "W1", CYCLES)?)
        } else {
            None
        };
        ok.push(edit_verdict(record, expected.as_ref()));
    }
    Ok(run.into_measured(ok, args.join(" ")))
}

/// Bytes of one cached 300-cycle trace per test design, measured with
/// the model's own `approx_bytes` on a short trace (the accounting is
/// linear in cycles).
pub fn key_bytes(
    model: &atlas_core::AtlasModel,
    experiment: &atlas_core::ExperimentConfig,
) -> Result<HashMap<String, usize>, String> {
    const PROBE_CYCLES: usize = 4;
    let lib = experiment.library();
    let encoder = model.prepare(atlas_core::Precision::F64);
    let mut out = HashMap::new();
    for design in ops::TEST_DESIGNS {
        let cfg = experiment.try_design(design).map_err(|e| e.to_string())?;
        let gate = cfg.generate();
        let data = atlas_core::features::build_submodule_data(&gate, &lib);
        let mut workload = experiment
            .try_workload("W1", cfg.seed)
            .map_err(|e| e.to_string())?;
        let trace =
            atlas_sim::simulate(&gate, &mut workload, PROBE_CYCLES).map_err(|e| e.to_string())?;
        let emb = model.embed_trace_with(&encoder, &gate, &lib, &data, &trace, 1);
        out.insert(
            design.to_owned(),
            emb.approx_bytes() / PROBE_CYCLES * CYCLES,
        );
    }
    Ok(out)
}

/// Per-shard working-set bytes of the `fleet` keys under the proxy's
/// ring, and the per-shard `--cache-mb` that holds the larger share plus
/// one key of headroom (so never-seen keys evict, and the working set
/// exceeds any single shard's budget).
pub fn fleet_budget(
    keys: &[PredictRequest],
    bytes: &HashMap<String, usize>,
) -> ([usize; 2], usize) {
    let ring = ops::fleet_ring();
    let mut share = [0usize; 2];
    for k in keys {
        share[ops::fleet_shard(&ring, MODEL, k)] += bytes[&k.design];
    }
    let largest_key = bytes.values().copied().max().unwrap_or(0);
    let budget_mb = (share[0].max(share[1]) + largest_key).div_ceil(MB);
    (share, budget_mb)
}

/// The `fleet` topology: two shards, then the proxy in front of them.
fn fleet(bench: &Bench, shard_args: &[Vec<String>]) -> Result<Served, String> {
    let mut procs: Vec<Proc> = shard_args
        .iter()
        .map(|a| Proc::spawn(&bench.bin.join("serve"), a))
        .collect::<Result<_, _>>()?;
    let stats_addrs: Vec<String> = procs.iter().map(|p| p.addr.clone()).collect();
    let mut proxy_args = vec![
        "--tcp".to_owned(),
        "127.0.0.1:0".to_owned(),
        "--default-model".to_owned(),
        MODEL.to_owned(),
    ];
    for (id, addr) in stats_addrs.iter().enumerate() {
        proxy_args.push("--shard".to_owned());
        proxy_args.push(format!("{id}={addr}"));
    }
    let proxy = Proc::spawn(&bench.bin.join("atlas-shard"), &proxy_args)?;
    let addr = proxy.addr.clone();
    procs.push(proxy);
    Ok(Served {
        procs,
        addr,
        stats_addrs,
    })
}

fn run_fleet(bench: &Bench) -> Result<Measured, String> {
    let keys = ops::fleet_keys(bench.seed);
    let bytes = key_bytes(&bench.saved.model, &bench.saved.config)?;
    let (_, budget_mb) = fleet_budget(&keys, &bytes);
    let shard_args: Vec<Vec<String>> = (0..2)
        .map(|id: u32| {
            let extra = [
                "--cache-mb".to_owned(),
                budget_mb.to_string(),
                "--shard-id".to_owned(),
                id.to_string(),
            ];
            serve_args(&bench.registry, MODEL, 1, &extra)
        })
        .collect();
    let seed = bench.seed;
    let request = |i: u64| match ops::fleet_op(seed, i) {
        FleetOp::Key(k) => keys[k].clone(),
        FleetOp::Fresh(r) => r,
    };
    // One connection: with two, a miss queued behind another miss on the
    // same single-worker shard made the tail a mixture of single and
    // doubled miss times, and the 90th percentile jumped between them.
    let run = segmented(
        bench,
        SEGMENTS,
        1,
        None,
        |_| {
            let served = fleet(bench, &shard_args)?;
            let primed = prime(&served.addr, &keys)?;
            Ok((served, primed))
        },
        |k, i| vec![ops::predict_line(&request(k * SEGMENT_STRIDE + i))],
    )?;

    // Check every reply of the most popular keys, plus sampled
    // never-seen keys.
    let mut reference = PredictReference::new(&bench.saved.model, &bench.saved.config);
    let mut expected: HashMap<usize, Watts> = HashMap::new();
    for (k, key) in keys.iter().enumerate().take(CHECK_SAMPLE / 2) {
        expected.insert(k, reference.predict(key)?);
    }
    let index = |(k, r): &(u64, OpRecord)| k * SEGMENT_STRIDE + r.index;
    let fresh: Vec<u64> = run
        .records
        .iter()
        .map(index)
        .filter(|&i| matches!(ops::fleet_op(seed, i), FleetOp::Fresh(_)))
        .collect();
    let mut fresh_expected: HashMap<u64, Watts> = HashMap::new();
    for p in sample_positions(fresh.len())
        .into_iter()
        .take(CHECK_SAMPLE / 2)
    {
        fresh_expected.insert(fresh[p], reference.predict(&request(fresh[p]))?);
    }
    let ok = run
        .records
        .iter()
        .map(|rec| {
            let i = index(rec);
            let want = match ops::fleet_op(seed, i) {
                FleetOp::Key(k) => expected.get(&k),
                FleetOp::Fresh(_) => fresh_expected.get(&i),
            };
            predict_verdict(&rec.1, want)
        })
        .collect();
    let flags = format!(
        "shards: {} | proxy: atlas-shard --default-model {MODEL} --shard 0=.. --shard 1=..",
        shard_args[0].join(" ")
    );
    Ok(run.into_measured(ok, flags))
}

/// Mean client-observed latency of the successful ops.
pub fn mean_latency(m: &Measured) -> f64 {
    mean(&m.ok_latencies())
}
