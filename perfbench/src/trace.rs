//! The traced run: a seeded sample of the workload's ops replayed
//! in-process, with a span around every call into a layer's public API.
//!
//! Each op goes through an in-process twin of the served topology (the
//! same model, worker count, and cache budget as the real server or
//! fleet). The twin's reply says what the service ran (`cache_hit`,
//! `design_cache_hit`, `base_hit`); the benchmark then calls exactly
//! those inner layers itself, recording them as children of the
//! `service.call` span, so the call's self time is the time it spent in
//! none of them (queueing, parking, single-flight waits, bookkeeping).
//! Spans inside the program are a later change; these are all recorded
//! from the benchmark's own code.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use atlas_core::features::build_submodule_data;
use atlas_core::{AtlasModel, Precision, PreparedEncoder, TraceEmbeddings};
use atlas_netlist::Design;
use atlas_serve::protocol::{self, summarize};
use atlas_serve::reactor::{PoolHandle, ReactorConfig, ReactorPool};
use atlas_serve::{
    AtlasService, ModelCatalog, ModelRegistry, PredictRequest, RequestLine, ServiceConfig,
    ShardInfo, ShardProxy,
};
use atlas_sim::{simulate, PhasedWorkload};

use crate::check::{same_bits, Artifacts, Watts};
use crate::client::Conn;
use crate::ops::{self, FleetOp, CYCLES};
use crate::report::{self, mean, median, Metric, PhaseCount};
use crate::run::{self, Measured};
use crate::{Bench, Workload, MODEL, WORK_DIR};

/// Ops replayed per workload.
fn sample_ops(workload: Workload) -> u64 {
    match workload {
        Workload::Cold => 8,
        Workload::Warm => 48,
        Workload::Edit => 16,
        Workload::Fleet => 48,
    }
}

/// Timed round trips per op behind each reactor and proxy overhead
/// (median).
const OVERHEAD_REPEATS: usize = 4;

/// The workload seed `serve` pins for every uploaded design (see
/// `DesignSource::seed` in the service), needed to replay an upload's
/// simulation.
const UPLOADED_DESIGN_SEED: u64 = 0x0041_544c_4153;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    /// Microseconds since the traced run began.
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// In-memory span recorder.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span; returns its value and the span's index.
    fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.t0.elapsed().as_secs_f64() * 1e6;
        let value = f();
        let end = self.t0.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_us: start,
            end_us: end,
        });
        (value, self.spans.len() - 1)
    }

    /// Record a span of a derived duration (a difference of two timed
    /// round trips), ending now.
    fn derived(&mut self, name: &'static str, op: u64, ms: f64) {
        let end = self.t0.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            op,
            parent: None,
            start_us: end - ms * 1e3,
            end_us: end,
        });
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// Per span name: (calls, total duration ms, total self ms).
    fn by_name(&self) -> HashMap<&'static str, (usize, f64, f64)> {
        let own = self.self_ms();
        let mut out: HashMap<&'static str, (usize, f64, f64)> = HashMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ms();
            e.2 += own;
        }
        out
    }

    /// Per op: (sum of every span's self time, the service's self time).
    fn per_op(&self) -> HashMap<u64, (f64, f64)> {
        let mut out: HashMap<u64, (f64, f64)> = HashMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ms()) {
            let e = out.entry(s.op).or_default();
            e.0 += own;
            if s.name == "service.call" {
                e.1 += own;
            }
        }
        out
    }

    fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":{},\"op\":{},\"parent\":{parent},\"start_us\":{},\"end_us\":{}}}",
                report::quote(s.name),
                s.op,
                report::number(s.start_us),
                report::number(s.end_us),
            );
        }
        out
    }
}

/// Work the replayed layers did, counted where it happened.
#[derive(Debug, Default)]
struct Counts {
    items: usize,
    unique_patterns: usize,
    delta_reused: usize,
    delta_total: usize,
    encoder_flop: f64,
    embedding_bytes_per_cycle: Vec<f64>,
    head_rows: usize,
    simulated_cycles: usize,
    upload_bytes: usize,
    response_bytes: usize,
}

/// Encoder floating-point operations of one encoded pattern on a graph
/// of `n` nodes and `nnz` adjacency entries, computed from the tensor
/// sizes of the batched forward: the embed matmul, per layer the q/k/v
/// and gcn matmuls, the linear-attention reductions, and the sparse
/// propagation, then mean-pooling and the output projection.
pub fn encoder_flop(model: &AtlasModel, n: usize, nnz: usize) -> f64 {
    let cfg = &model.encoder().config;
    let (i, h, l) = (
        cfg.input_dim as f64,
        cfg.hidden_dim as f64,
        cfg.layers as f64,
    );
    let out = model
        .encoder()
        .tensors
        .last()
        .map_or(h, |b| b.cols() as f64);
    let (n, e) = (n as f64, nnz as f64);
    2.0 * n * i * h + l * (12.0 * n * h * h + 2.0 * e * h + 7.0 * n * h) + n * h + 2.0 * h * out
}

/// The in-process twin of the served topology.
struct Twin {
    services: Vec<Arc<AtlasService>>,
    pools: Vec<PoolHandle>,
    proxy: Option<PoolHandle>,
}

impl Twin {
    fn start(bench: &Bench, count: usize, cfg: ServiceConfig) -> Result<Twin, String> {
        let mut services = Vec::new();
        let mut pools = Vec::new();
        for _ in 0..count {
            let mut catalog = ModelCatalog::new();
            catalog
                .insert_model(MODEL, bench.saved.model.clone(), bench.saved.config.clone())
                .map_err(|e| e.to_string())?;
            let service = Arc::new(
                AtlasService::start_catalog(catalog, cfg.clone()).map_err(|e| e.to_string())?,
            );
            let pool =
                ReactorPool::bind(service.clone(), "127.0.0.1:0", ReactorConfig::default(), 1)
                    .and_then(ReactorPool::spawn)
                    .map_err(|e| format!("twin reactor: {e}"))?;
            services.push(service);
            pools.push(pool);
        }
        let proxy = if count > 1 {
            let shards = pools
                .iter()
                .enumerate()
                .map(|(id, p)| ShardInfo {
                    id: id as u32,
                    addr: p.addr().to_string(),
                    vnodes: 0,
                })
                .collect();
            let proxy = ShardProxy::new(shards)
                .map_err(|e| e.to_string())?
                .with_default_model(MODEL);
            Some(
                ReactorPool::bind(Arc::new(proxy), "127.0.0.1:0", ReactorConfig::default(), 1)
                    .and_then(ReactorPool::spawn)
                    .map_err(|e| format!("twin proxy: {e}"))?,
            )
        } else {
            None
        };
        Ok(Twin {
            services,
            pools,
            proxy,
        })
    }

    fn shutdown(self) {
        if let Some(p) = self.proxy {
            let _ = p.shutdown();
        }
        for p in self.pools {
            let _ = p.shutdown();
        }
    }
}

/// One replayed op, before it runs.
enum Replay {
    Predict {
        shard: usize,
        request: PredictRequest,
    },
    Edit(ops::EditOp),
}

/// What the traced run reports.
pub struct Traced {
    pub count: PhaseCount,
    pub metrics: Vec<Metric>,
}

/// Replay state: materialized designs and embeddings by key, so a layer
/// the service skipped (a cache hit) is skipped here too while its
/// successors still get their inputs.
struct Replayer<'a> {
    bench: &'a Bench,
    encoder: PreparedEncoder,
    lib: atlas_liberty::Library,
    designs: HashMap<String, (u64, Arc<Artifacts>)>,
    embeddings: HashMap<(String, String), Arc<TraceEmbeddings>>,
    tracer: Tracer,
    counts: Counts,
}

impl<'a> Replayer<'a> {
    fn model(&self) -> &'a AtlasModel {
        &self.bench.saved.model
    }

    /// A preset design's artifacts, building them untimed if the replay
    /// has not seen the design yet.
    fn preset(&mut self, name: &str) -> Result<(u64, Arc<Artifacts>), String> {
        if let Some(hit) = self.designs.get(name) {
            return Ok(hit.clone());
        }
        let cfg = self
            .bench
            .saved
            .config
            .try_design(name)
            .map_err(|e| e.to_string())?;
        let gate = cfg.generate();
        let data = build_submodule_data(&gate, &self.lib);
        let entry = (cfg.seed, Arc::new(Artifacts { gate, data }));
        self.designs.insert(name.to_owned(), entry.clone());
        Ok(entry)
    }

    /// Count the encoder work of `emb`: distinct patterns, and the flops
    /// of the patterns that were encoded rather than copied from `base`.
    fn count_embed(
        &mut self,
        design: &Artifacts,
        emb: &TraceEmbeddings,
        base: Option<&TraceEmbeddings>,
    ) {
        for (sm, data) in emb.per_submodule().iter().zip(&design.data) {
            let distinct: HashSet<u64> = sm.pattern_digests.iter().copied().collect();
            self.counts.items += sm.pattern_digests.len();
            self.counts.unique_patterns += distinct.len();
            let donor: HashSet<u64> = base
                .and_then(|b| {
                    b.per_submodule()
                        .iter()
                        .find(|d| d.submodule == sm.submodule)
                })
                .filter(|d| d.graph_fp == sm.graph_fp)
                .map(|d| d.pattern_digests.iter().copied().collect())
                .unwrap_or_default();
            let encoded = distinct.difference(&donor).count();
            self.counts.encoder_flop +=
                encoded as f64 * encoder_flop(self.model(), data.node_count(), data.adj().nnz());
        }
    }

    /// Replay a `predict`: parse, [route], call, then the layers its reply
    /// says ran, then render. Returns whether the replayed layers
    /// reproduced the twin's watts bit for bit.
    fn predict(
        &mut self,
        twin: &Twin,
        op: u64,
        shard: usize,
        request: &PredictRequest,
    ) -> Result<bool, String> {
        let line = ops::predict_line(request);
        let (parsed, _) = self
            .tracer
            .time("protocol.parse", op, None, || protocol::parse_line(&line));
        let Ok(RequestLine::Predict(request)) = parsed else {
            return Err(format!("request line did not parse as a predict: {line}"));
        };
        if twin.services.len() > 1 {
            let ring = ops::fleet_ring();
            self.tracer.time("shard.route", op, None, || {
                ops::fleet_shard(&ring, MODEL, &request)
            });
        }
        let service = &twin.services[shard];
        let (reply, call) = self
            .tracer
            .time("service.call", op, None, || service.call(request.clone()));
        let reply = reply.map_err(|e| format!("twin predict: {e}"))?;
        let label = reply.workload.clone();
        let key = (request.design.clone(), label.clone());

        let (seed, design) = if reply.design_cache_hit {
            self.preset(&request.design)?
        } else {
            let cfg = self
                .bench
                .saved
                .config
                .try_design(&request.design)
                .map_err(|e| e.to_string())?;
            let (gate, _) = self
                .tracer
                .time("designs.generate", op, Some(call), || cfg.generate());
            let lib = &self.lib;
            let (data, _) = self.tracer.time("features.build", op, Some(call), || {
                build_submodule_data(&gate, lib)
            });
            let entry = (cfg.seed, Arc::new(Artifacts { gate, data }));
            self.designs.insert(request.design.clone(), entry.clone());
            entry
        };
        let cached = self.embeddings.get(&key).cloned();
        let emb = match (reply.cache_hit, cached) {
            (true, Some(emb)) => emb,
            (cache_hit, _) => {
                let phases = request
                    .phases
                    .clone()
                    .ok_or("replayed ops carry schedules")?;
                let mut workload = PhasedWorkload::try_new(label.clone(), phases, seed)?;
                let parent = (!cache_hit).then_some(call);
                let emb = self.simulate_embed(op, parent, &design, &mut workload, None)?;
                self.embeddings.insert(key, emb.clone());
                emb
            }
        };
        let model = self.model();
        let (power, _) = self.tracer.time("gbdt.heads", op, Some(call), || {
            model.predict_from_embeddings(&emb)
        });
        self.counts.head_rows += emb.per_submodule().len() * emb.cycles();
        self.counts
            .embedding_bytes_per_cycle
            .push(emb.approx_bytes() as f64 / emb.cycles() as f64);
        let (summary, _) = self.tracer.time("protocol.summarize", op, Some(call), || {
            summarize(
                &request,
                MODEL,
                &label,
                &power,
                reply.cache_hit,
                reply.design_cache_hit,
                0.0,
            )
        });
        let (rendered, _) = self.tracer.time("protocol.render", op, None, || {
            protocol::render_result(&Ok(reply.clone()))
        });
        self.counts.response_bytes += rendered.len() + 1;
        Ok(same_bits(&Watts::from(&summary), &Watts::from(&reply)))
    }

    /// Simulate and embed under `parent` (untimed when `parent` is
    /// `None`: the service skipped these layers and the replay only needs
    /// their output).
    fn simulate_embed(
        &mut self,
        op: u64,
        parent: Option<usize>,
        design: &Artifacts,
        workload: &mut PhasedWorkload,
        base: Option<&TraceEmbeddings>,
    ) -> Result<Arc<TraceEmbeddings>, String> {
        let (model, lib, encoder) = (self.model(), &self.lib, &self.encoder);
        let Some(call) = parent else {
            let trace = simulate(&design.gate, workload, CYCLES).map_err(|e| e.to_string())?;
            return Ok(Arc::new(model.embed_trace_with(
                encoder,
                &design.gate,
                lib,
                &design.data,
                &trace,
                1,
            )));
        };
        let (trace, _) = self.tracer.time("sim.simulate", op, Some(call), || {
            simulate(&design.gate, workload, CYCLES)
        });
        let trace = trace.map_err(|e| e.to_string())?;
        self.counts.simulated_cycles += CYCLES;
        let (emb, _) = self
            .tracer
            .time("model.embed", op, Some(call), || match base {
                Some(base) => {
                    let (emb, stats) = model.embed_trace_delta_with(
                        encoder,
                        &design.gate,
                        lib,
                        &design.data,
                        &trace,
                        1,
                        base,
                    );
                    (emb, Some(stats))
                }
                None => (
                    model.embed_trace_with(encoder, &design.gate, lib, &design.data, &trace, 1),
                    None,
                ),
            });
        let (emb, stats) = emb;
        if let Some(stats) = stats {
            self.counts.delta_reused += stats.reused_cycles;
            self.counts.delta_total += stats.reused_cycles + stats.recomputed_cycles;
        }
        self.count_embed(design, &emb, base);
        Ok(Arc::new(emb))
    }

    /// Replay one `edit` revision: the upload, then the delta predict.
    fn edit(&mut self, twin: &Twin, op: u64, edit: &ops::EditOp) -> Result<bool, String> {
        let service = &twin.services[0];
        let line = ops::upload_line(&edit.name, &edit.verilog);
        let (parsed, _) = self
            .tracer
            .time("protocol.parse", op, None, || protocol::parse_line(&line));
        let Ok(RequestLine::LoadDesign(upload)) = parsed else {
            return Err("upload line did not parse".to_owned());
        };
        let (info, call) = self.tracer.time("service.call", op, None, || {
            service.load_design(&upload.name, &upload.verilog)
        });
        let info = info.map_err(|e| format!("twin upload: {e}"))?;
        let (gate, _) = self
            .tracer
            .time("netlist.from_verilog", op, Some(call), || {
                Design::from_verilog(&upload.verilog)
            });
        let gate = gate.map_err(|e| format!("replay parse: {e}"))?;
        self.counts.upload_bytes += upload.verilog.len();
        let (rendered, _) = self.tracer.time("protocol.render", op, None, || {
            protocol::render_line(&atlas_serve::LoadDesignResponse {
                id: upload.id,
                verb: "load_design".to_owned(),
                design: info,
            })
        });
        self.counts.response_bytes += rendered.len() + 1;

        let line = ops::delta_line(&edit.delta);
        let (parsed, _) = self
            .tracer
            .time("protocol.parse", op, None, || protocol::parse_line(&line));
        let Ok(RequestLine::PredictDelta(request)) = parsed else {
            return Err("delta line did not parse".to_owned());
        };
        let (reply, call) = self.tracer.time("service.call", op, None, || {
            service.call_delta(request.clone())
        });
        let reply = reply.map_err(|e| format!("twin delta: {e}"))?;
        let design = if reply.design_cache_hit {
            self.designs
                .get(&edit.name)
                .map(|d| d.1.clone())
                .ok_or("design cache hit on an unseen revision")?
        } else {
            let lib = &self.lib;
            let (data, _) = self.tracer.time("features.build", op, Some(call), || {
                build_submodule_data(&gate, lib)
            });
            let artifacts = Arc::new(Artifacts { gate, data });
            self.designs
                .insert(edit.name.clone(), (UPLOADED_DESIGN_SEED, artifacts.clone()));
            artifacts
        };
        let base_key = (request.base_request().design, "W1".to_owned());
        let base = self.embeddings.get(&base_key).cloned();
        let mut workload = PhasedWorkload::preset("W1", UPLOADED_DESIGN_SEED).ok_or("W1 preset")?;
        let parent = (!reply.cache_hit).then_some(call);
        let base = base.filter(|_| reply.base_hit);
        let emb = self.simulate_embed(op, parent, &design, &mut workload, base.as_deref())?;
        self.embeddings
            .insert((edit.name.clone(), "W1".to_owned()), emb.clone());
        let model = self.model();
        let (power, _) = self.tracer.time("gbdt.heads", op, Some(call), || {
            model.predict_from_embeddings(&emb)
        });
        self.counts.head_rows += emb.per_submodule().len() * emb.cycles();
        self.counts
            .embedding_bytes_per_cycle
            .push(emb.approx_bytes() as f64 / emb.cycles() as f64);
        let target = request.target();
        let (summary, _) = self.tracer.time("protocol.summarize", op, Some(call), || {
            summarize(
                &target,
                MODEL,
                "W1",
                &power,
                reply.cache_hit,
                reply.design_cache_hit,
                0.0,
            )
        });
        let (rendered, _) = self.tracer.time("protocol.render", op, None, || {
            protocol::render_delta_result(&Ok(reply.clone()))
        });
        self.counts.response_bytes += rendered.len() + 1;
        Ok(same_bits(&Watts::from(&summary), &Watts::from(&reply)))
    }

    /// Reactor (and, in a fleet, proxy) overhead of `line` once warm:
    /// the TCP round trip through the twin's reactor minus the same
    /// request's `call`, and the proxy round trip minus the direct one.
    fn overheads(&mut self, twin: &Twin, op: u64, shard: usize, line: &str) -> Result<(), String> {
        let service = &twin.services[shard];
        let call = |service: &AtlasService| -> Result<(), String> {
            match protocol::parse_line(line) {
                Ok(RequestLine::Predict(r)) => service.call(r).map(|_| ()),
                Ok(RequestLine::PredictDelta(r)) => service.call_delta(r).map(|_| ()),
                _ => return Err(format!("unexpected line {line}")),
            }
            .map_err(|e| e.to_string())
        };
        let mut direct = Conn::open(&twin.pools[shard].addr().to_string())?;
        let mut via = match &twin.proxy {
            Some(proxy) => Some(Conn::open(&proxy.addr().to_string())?),
            None => None,
        };
        let timed = |f: &mut dyn FnMut() -> Result<(), String>| -> Result<f64, String> {
            let t = Instant::now();
            f()?;
            Ok(t.elapsed().as_secs_f64() * 1e3)
        };
        // One untimed pass warms every path; then the timed repeats
        // alternate their order, so whichever path runs second (on
        // warmer caches) is not always the same one.
        let (mut reactor, mut hop) = (Vec::new(), Vec::new());
        for rep in 0..=OVERHEAD_REPEATS {
            let (mut call_ms, mut direct_ms, mut proxy_ms) = (0.0, 0.0, 0.0);
            let mut order: Vec<u8> = vec![0, 1, 2];
            if rep % 2 == 1 {
                order.reverse();
            }
            for path in order {
                match path {
                    0 => call_ms = timed(&mut || call(service))?,
                    1 => direct_ms = timed(&mut || direct.roundtrip(line).map(|_| ()))?,
                    _ => {
                        if let Some(via) = via.as_mut() {
                            proxy_ms = timed(&mut || via.roundtrip(line).map(|_| ()))?;
                        }
                    }
                }
            }
            if rep > 0 {
                reactor.push(direct_ms - call_ms);
                if via.is_some() {
                    hop.push(proxy_ms - direct_ms);
                }
            }
        }
        self.tracer
            .derived("reactor.overhead", op, median(&reactor));
        if !hop.is_empty() {
            self.tracer
                .derived("shard.proxy_overhead", op, median(&hop));
        }
        Ok(())
    }
}

/// Replay a seeded sample of `workload`'s ops with tracing, and derive
/// the per-layer metrics (see `perfbench/README.md`).
pub fn traced_run(
    bench: &Bench,
    workload: Workload,
    measured: &Measured,
) -> Result<Traced, String> {
    // registry: the model load every server start pays.
    let path = ModelRegistry::open(&bench.registry)
        .map_err(|e| e.to_string())?
        .path_for(MODEL);
    let mut load_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        ModelRegistry::load_file(&path).map_err(|e| e.to_string())?;
        load_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    let seed = bench.seed;
    let n = sample_ops(workload);
    let mut fleet_share = [0usize; 2];
    let (shards, cfg) = match workload {
        Workload::Cold => (
            1,
            ServiceConfig {
                workers: run::COLD_CONNS,
                embedding_cache_bytes: run::COLD_CACHE_MB << 20,
                ..ServiceConfig::default()
            },
        ),
        Workload::Warm => (
            1,
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        ),
        Workload::Edit => (
            1,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        ),
        Workload::Fleet => {
            let (share, budget_mb) = run::fleet_budget(
                &ops::fleet_keys(seed),
                &run::key_bytes(&bench.saved.model, &bench.saved.config)?,
            );
            fleet_share = share;
            (
                2,
                ServiceConfig {
                    workers: 1,
                    embedding_cache_bytes: budget_mb << 20,
                    ..ServiceConfig::default()
                },
            )
        }
    };
    let twin = Twin::start(bench, shards, cfg)?;
    let mut r = Replayer {
        bench,
        encoder: bench.saved.model.prepare(Precision::F64),
        lib: bench.saved.config.library(),
        designs: HashMap::new(),
        embeddings: HashMap::new(),
        tracer: Tracer::new(),
        counts: Counts::default(),
    };

    // Prime the twin as the timed run's set-up primed the server, and the
    // replay's own stores alongside (untimed).
    let ring = ops::fleet_ring();
    let shard_of = |req: &PredictRequest| {
        if shards > 1 {
            ops::fleet_shard(&ring, MODEL, req)
        } else {
            0
        }
    };
    let primed: Vec<PredictRequest> = match workload {
        Workload::Warm => ops::warm_keys(seed),
        Workload::Fleet => ops::fleet_keys(seed),
        _ => Vec::new(),
    };
    for req in &primed {
        let reply = twin.services[shard_of(req)]
            .call(req.clone())
            .map_err(|e| format!("twin priming: {e}"))?;
        let (seed, design) = r.preset(&req.design)?;
        let phases = req.phases.clone().ok_or("primed keys carry schedules")?;
        let mut wl = PhasedWorkload::try_new(reply.workload.clone(), phases, seed)?;
        let emb = r.simulate_embed(u64::MAX, None, &design, &mut wl, None)?;
        r.embeddings
            .insert((req.design.clone(), reply.workload), emb);
    }
    let replay: Vec<Replay> = match workload {
        Workload::Cold => (0..n)
            .map(|i| Replay::Predict {
                shard: 0,
                request: ops::cold_op(seed, i),
            })
            .collect(),
        Workload::Warm => (0..n)
            .map(|i| Replay::Predict {
                shard: 0,
                request: primed[ops::warm_op(seed, i)].clone(),
            })
            .collect(),
        Workload::Fleet => (0..n)
            .map(|i| {
                let request = match ops::fleet_op(seed, i) {
                    FleetOp::Key(k) => primed[k].clone(),
                    FleetOp::Fresh(req) => req,
                };
                Replay::Predict {
                    shard: shard_of(&request),
                    request,
                }
            })
            .collect(),
        Workload::Edit => {
            let (name, verilog) = ops::edit_base(seed, 0)?;
            let service = &twin.services[0];
            service
                .load_design(&name, &verilog)
                .map_err(|e| e.to_string())?;
            service
                .call(PredictRequest::new(name.as_str(), "W1", CYCLES))
                .map_err(|e| e.to_string())?;
            let gate = Design::from_verilog(&verilog).map_err(|e| e.to_string())?;
            let data = build_submodule_data(&gate, &r.lib);
            let design = Arc::new(Artifacts { gate, data });
            let mut wl = PhasedWorkload::preset("W1", UPLOADED_DESIGN_SEED).ok_or("W1 preset")?;
            let emb = r.simulate_embed(u64::MAX, None, &design, &mut wl, None)?;
            r.embeddings.insert((name.clone(), "W1".to_owned()), emb);
            r.designs.insert(name, (UPLOADED_DESIGN_SEED, design));
            ops::edit_session(seed, 0, n as usize)?
                .into_iter()
                .map(Replay::Edit)
                .collect()
        }
    };

    let mut count = PhaseCount::default();
    let mut last_lines = Vec::new();
    for (op, item) in replay.iter().enumerate() {
        let op = op as u64;
        count.sent += 1;
        let matched = match item {
            Replay::Predict { shard, request } => {
                last_lines.push((*shard, ops::predict_line(request)));
                r.predict(&twin, op, *shard, request)?
            }
            Replay::Edit(edit) => {
                last_lines.push((0, ops::delta_line(&edit.delta)));
                r.edit(&twin, op, edit)?
            }
        };
        if matched {
            count.ok += 1;
        } else {
            count.failed += 1;
        }
    }
    for (op, (shard, line)) in last_lines.iter().enumerate() {
        r.overheads(&twin, op as u64, *shard, line)?;
    }
    twin.shutdown();

    let metrics = layer_metrics(&r, measured, n as f64, median(&load_ms), fleet_share);
    write_outputs(bench, workload, &r.tracer, &metrics, measured)?;
    Ok(Traced { count, metrics })
}

/// The per-layer metrics, in `BENCHMARK.json` order.
fn layer_metrics(
    r: &Replayer<'_>,
    measured: &Measured,
    ops: f64,
    registry_load_ms: f64,
    fleet_share: [usize; 2],
) -> Vec<Metric> {
    let by_name = r.tracer.by_name();
    let total = |name: &str| by_name.get(name).map_or(0.0, |e| e.1);
    let own = |name: &str| by_name.get(name).map_or(0.0, |e| e.2);
    let per_op = |ms: f64| ms / ops;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let c = &r.counts;
    let counters = &measured.counters;
    let per_op_spans = r.tracer.per_op();
    let traced_ops: Vec<(f64, f64)> = per_op_spans
        .iter()
        .filter(|(op, _)| **op != u64::MAX)
        .map(|(_, v)| *v)
        .collect();
    let named: Vec<f64> = traced_ops.iter().map(|(all, wait)| all - wait).collect();
    let whole: Vec<f64> = traced_ops.iter().map(|(all, _)| *all).collect();
    let untraced_p50 = report::quantile(&measured.latencies(), 0.5);
    let untraced_mean = run::mean_latency(measured);
    let m = |name: &'static str, unit: &'static str, value: f64| Metric { name, unit, value };
    vec![
        m("model.embed_ms", "ms", per_op(own("model.embed"))),
        m(
            "model.unique_pattern_ratio",
            "ratio",
            ratio(c.unique_patterns as f64, c.items as f64),
        ),
        m(
            "model.delta_reused_ratio",
            "ratio",
            ratio(c.delta_reused as f64, c.delta_total as f64),
        ),
        m(
            "model.embedding_kb_per_cycle",
            "KB",
            mean(&c.embedding_bytes_per_cycle) / 1024.0,
        ),
        m("nn.encoder_gflop", "GFLOP", c.encoder_flop / ops / 1e9),
        m(
            "nn.encoder_gflops",
            "GFLOP/s",
            ratio(c.encoder_flop / 1e9, total("model.embed") / 1e3),
        ),
        m("gbdt.heads_ms", "ms", per_op(own("gbdt.heads"))),
        m(
            "gbdt.rows_per_s",
            "rows/s",
            ratio(c.head_rows as f64, total("gbdt.heads") / 1e3),
        ),
        m("sim.simulate_ms", "ms", per_op(own("sim.simulate"))),
        m(
            "sim.cycles_per_s",
            "cycles/s",
            ratio(c.simulated_cycles as f64, total("sim.simulate") / 1e3),
        ),
        m("designs.generate_ms", "ms", per_op(own("designs.generate"))),
        m("features.build_ms", "ms", per_op(own("features.build"))),
        m(
            "netlist.from_verilog_ms",
            "ms",
            per_op(own("netlist.from_verilog")),
        ),
        m(
            "netlist.upload_kb",
            "KB",
            c.upload_bytes as f64 / ops / 1024.0,
        ),
        m(
            "protocol.parse_us",
            "us",
            per_op(own("protocol.parse")) * 1e3,
        ),
        m(
            "protocol.render_us",
            "us",
            per_op(own("protocol.summarize") + own("protocol.render")) * 1e3,
        ),
        m(
            "protocol.response_bytes",
            "bytes",
            c.response_bytes as f64 / ops,
        ),
        m("reactor.overhead_ms", "ms", per_op(own("reactor.overhead"))),
        m("service.call_ms", "ms", per_op(total("service.call"))),
        m("service.wait_ms", "ms", per_op(own("service.call"))),
        m(
            "service.embeddings_computed",
            "count",
            ratio(
                counters.embeddings_computed as f64,
                counters.requests as f64,
            ),
        ),
        m(
            "cache.embedding_hit_ratio",
            "ratio",
            1.0 - ratio(
                counters.embeddings_computed as f64,
                counters.requests as f64,
            ),
        ),
        m(
            "cache.design_hit_ratio",
            "ratio",
            ratio(
                counters.design_hits as f64,
                (counters.design_hits + counters.design_misses) as f64,
            ),
        ),
        m(
            "cache.embedding_mb",
            "MB",
            counters.embedding_bytes as f64 / (1 << 20) as f64,
        ),
        m(
            "shard.proxy_overhead_ms",
            "ms",
            per_op(own("shard.proxy_overhead")),
        ),
        m(
            "shard.max_share",
            "ratio",
            ratio(
                fleet_share[0].max(fleet_share[1]) as f64,
                (fleet_share[0] + fleet_share[1]) as f64,
            ),
        ),
        m("registry.load_ms", "ms", registry_load_ms),
        m(
            "trace.unaccounted_ratio",
            "ratio",
            1.0 - ratio(mean(&named), untraced_mean),
        ),
        m(
            "trace.overhead_ratio",
            "ratio",
            ratio(median(&whole), untraced_p50) - 1.0,
        ),
    ]
}

/// One ledger row per layer: which metric it moves, where (the README's
/// table) is beside it; this is what the run measured.
const LAYERS: [(&str, &[&str]); 13] = [
    (
        "protocol",
        &["protocol.parse", "protocol.summarize", "protocol.render"],
    ),
    ("reactor", &["reactor.overhead"]),
    ("service", &["service.call"]),
    ("cache", &[]),
    ("shard", &["shard.route", "shard.proxy_overhead"]),
    ("registry", &[]),
    ("designs", &["designs.generate"]),
    ("netlist", &["netlist.from_verilog"]),
    ("features", &["features.build"]),
    ("sim", &["sim.simulate"]),
    ("model", &["model.embed"]),
    ("nn", &[]),
    ("gbdt", &["gbdt.heads"]),
];

fn write_outputs(
    bench: &Bench,
    workload: Workload,
    tracer: &Tracer,
    metrics: &[Metric],
    measured: &Measured,
) -> Result<(), String> {
    let by_name = tracer.by_name();
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let ops = sample_ops(workload) as f64;
    let traced_total: f64 = by_name.values().map(|e| e.2).sum::<f64>() / ops;
    let now = report::utc_now();
    let mut md = String::new();
    let _ = writeln!(md, "# Workload: {}", workload.name());
    let _ = writeln!(
        md,
        "### Commit: {} · seed {} · isa {} · kernel {} · {} traced ops · unaccounted {:.3} · overhead {:.3}\n",
        report::commit(),
        bench.seed,
        atlas_nn::simd::isa_label(),
        atlas_nn::simd::kernel_label(atlas_nn::simd::active_kernel()),
        ops,
        value("trace.unaccounted_ratio"),
        value("trace.overhead_ratio"),
    );
    md.push_str("<table>\n<thead>\n<tr><th>Time (UTC+00:00)     </th><th>Layer    </th><th style=\"text-align: right;\">Calls</th><th style=\"text-align: right;\">Self ms/op</th><th style=\"text-align: right;\">Share</th><th>Metrics</th></tr>\n</thead>\n<tbody>\n");
    for (layer, spans) in LAYERS {
        let (calls, own) = spans.iter().fold((0usize, 0.0f64), |(c, o), s| {
            by_name.get(s).map_or((c, o), |e| (c + e.0, o + e.2))
        });
        let names: Vec<&str> = metrics
            .iter()
            .map(|m| m.name)
            .filter(|name| name.split('.').next() == Some(layer))
            .collect();
        let exercised = match layer {
            "cache" => measured.counters.requests > 0,
            "registry" => true,
            "nn" => value("nn.encoder_gflop") > 0.0,
            "shard" => calls > 0,
            _ => calls > 0,
        };
        let shown: Vec<String> = names
            .iter()
            .map(|n| format!("{n}={:.4}", value(n)))
            .collect();
        if exercised {
            let _ = writeln!(
                md,
                "<tr><td>{now}</td><td>{layer:<9}</td><td style=\"text-align: right;\">{calls}</td><td style=\"text-align: right;\">{:.4}</td><td style=\"text-align: right;\">{:.1}%</td><td>{}</td></tr>",
                own / ops,
                100.0 * own / ops / traced_total.max(1e-12),
                shown.join(" "),
            );
        } else {
            let _ = writeln!(
                md,
                "<tr><td>Never                </td><td>{layer:<9}</td><td style=\"text-align: right;\">0</td><td style=\"text-align: right;\">0</td><td style=\"text-align: right;\">0.0%</td><td>not exercised</td></tr>",
            );
        }
    }
    md.push_str("</tbody>\n</table>\n");
    eprint!("{md}");
    std::fs::create_dir_all(WORK_DIR).map_err(|e| e.to_string())?;
    let stem = format!("{WORK_DIR}/{}-seed{}", workload.name(), bench.seed);
    std::fs::write(format!("{stem}.spans.jsonl"), tracer.jsonl()).map_err(|e| e.to_string())?;
    std::fs::write(format!("{stem}.ledger.md"), md).map_err(|e| e.to_string())?;
    Ok(())
}
