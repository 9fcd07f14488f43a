//! Seeded op streams: what each workload sends, derived only from
//! `--seed`, so the same seed always yields byte-identical request lines.

use atlas_liberty::{CellClass, Drive};
use atlas_netlist::{Design, NetlistBuilder};
use atlas_serve::shard::ShardRing;
use atlas_serve::{trace_route_key, DeltaBase, PredictDeltaRequest, PredictRequest, ShardInfo};
use atlas_sim::WorkloadPhase;

/// Trace length of every op: the paper's 300-cycle traces.
pub const CYCLES: usize = 300;
/// The paper's held-out test designs (never seen in training).
pub const TEST_DESIGNS: [&str; 2] = ["C2", "C4"];

/// The test design of the `n`-th op or key of a miss-heavy stream: one
/// C2 for every three C4s. An even mix would put the median latency on
/// the seam between the two designs' costs, where it jumps with the mix;
/// this one keeps the median and the 90th percentile inside C4's range.
pub fn mixed_design(n: u64) -> &'static str {
    if n.is_multiple_of(4) {
        "C2"
    } else {
        "C4"
    }
}
/// Keys primed on `warm` and then repeated.
pub const WARM_KEYS: usize = 16;
/// Sub-modules of the `edit` netlist.
pub const EDIT_SUBMODULES: usize = 8;
/// The design-library cap of one `serve` process (its `max_designs`
/// default, which `serve` exposes no flag for).
pub const UPLOAD_CAP: usize = 64;
/// Revisions per `edit` session. A session may hold at most the cap
/// minus its base upload (63); half of that makes each run sample about
/// ten server processes, whose speed differs from process to process on
/// a shared host.
pub const EDIT_SESSION_REVISIONS: usize = (UPLOAD_CAP - 1) / 2;
/// Keys in the `fleet` working set.
pub const FLEET_KEYS: usize = 24;
/// Every this-many-th `fleet` op is a never-seen key.
pub const FLEET_FRESH_EVERY: u64 = 2;
/// Zipf exponent of the `fleet` key popularity.
pub const FLEET_ZIPF_S: f64 = 0.8;

/// SplitMix64: small, fast, and fully specified here, so op streams do
/// not depend on any generator inside the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for item `index` of purpose `stream`.
    pub fn for_item(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.0 ^= r.next_u64() ^ index.wrapping_mul(0x9FB2_1C65_1E98_DF25);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const STREAM_COLD: u64 = 1;
const STREAM_WARM_KEYS: u64 = 2;
const STREAM_WARM_OPS: u64 = 3;
const STREAM_EDIT: u64 = 4;
const STREAM_FLEET_KEYS: u64 = 5;
const STREAM_FLEET_OPS: u64 = 6;

/// A W1/W2-like inline phase schedule: 3 to 5 phases of bursty, busy,
/// and idle activity. Activities are whole percents so the wire text is
/// short and parses back to the same bits.
pub fn schedule(rng: &mut Rng) -> Vec<WorkloadPhase> {
    let phases = 3 + rng.below(3);
    (0..phases)
        .map(|_| {
            let activity = if rng.below(4) == 0 {
                // Idle stretch, as in W1's 5% and W2's 2% phases.
                (1 + rng.below(5)) as f64 / 100.0
            } else {
                (10 + rng.below(45)) as f64 / 100.0
            };
            let min_len = 4 + rng.below(30);
            WorkloadPhase {
                activity,
                min_len,
                max_len: min_len + rng.below(50),
            }
        })
        .collect()
}

/// `cold` op `i`: a never-sent trace key (its label is unique) on a test
/// design, under a fresh schedule.
pub fn cold_op(seed: u64, i: u64) -> PredictRequest {
    let mut rng = Rng::for_item(seed, STREAM_COLD, i);
    let design = mixed_design(i);
    let phases = schedule(&mut rng);
    PredictRequest::with_phases(design, format!("cold-{i}"), CYCLES, phases)
}

/// The `warm` key set, half on each test design.
pub fn warm_keys(seed: u64) -> Vec<PredictRequest> {
    (0..WARM_KEYS)
        .map(|k| {
            let mut rng = Rng::for_item(seed, STREAM_WARM_KEYS, k as u64);
            let design = TEST_DESIGNS[k % TEST_DESIGNS.len()];
            PredictRequest::with_phases(design, format!("warm-{k}"), CYCLES, schedule(&mut rng))
        })
        .collect()
}

/// Index into [`warm_keys`] of `warm` op `i`.
pub fn warm_op(seed: u64, i: u64) -> usize {
    Rng::for_item(seed, STREAM_WARM_OPS, i).below(WARM_KEYS)
}

/// A `fleet` key with a fresh schedule, labelled `{prefix}-{n}` plus the
/// first suffix that routes it to `shard`, so both shards get the same
/// mix of designs and popularity ranks on every seed.
fn fleet_key(rng: &mut Rng, prefix: &str, n: u64, design: &str, shard: usize) -> PredictRequest {
    let ring = fleet_ring();
    let phases = schedule(rng);
    (0..)
        .map(|attempt| {
            PredictRequest::with_phases(
                design,
                format!("{prefix}-{n}-{attempt}"),
                CYCLES,
                phases.clone(),
            )
        })
        .find(|req| fleet_shard(&ring, crate::MODEL, req) == shard)
        .expect("some suffix routes to each shard")
}

/// The `fleet` working set, ordered by popularity rank: rank `k` lives
/// on shard `k % 2`, so both shards hold the same design mix.
pub fn fleet_keys(seed: u64) -> Vec<PredictRequest> {
    (0..FLEET_KEYS)
        .map(|k| {
            let mut rng = Rng::for_item(seed, STREAM_FLEET_KEYS, k as u64);
            let design = mixed_design(k as u64 / 2);
            fleet_key(&mut rng, "fleet", k as u64, design, k % 2)
        })
        .collect()
}

/// One `fleet` op: a working-set key by index, or a never-seen key.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetOp {
    Key(usize),
    Fresh(PredictRequest),
}

/// `fleet` op `i`: every `FLEET_FRESH_EVERY`-th op is a never-seen key
/// (alternating shards), the rest draw a working-set key from a Zipf
/// popularity.
pub fn fleet_op(seed: u64, i: u64) -> FleetOp {
    let mut rng = Rng::for_item(seed, STREAM_FLEET_OPS, i);
    if i % FLEET_FRESH_EVERY == FLEET_FRESH_EVERY - 1 {
        let j = i / FLEET_FRESH_EVERY;
        let design = mixed_design(j / 2);
        return FleetOp::Fresh(fleet_key(&mut rng, "fresh", i, design, j as usize % 2));
    }
    let weights: Vec<f64> = (0..FLEET_KEYS)
        .map(|k| 1.0 / ((k + 1) as f64).powf(FLEET_ZIPF_S))
        .collect();
    let mut x = rng.unit() * weights.iter().sum::<f64>();
    for (k, w) in weights.iter().enumerate() {
        if x < *w {
            return FleetOp::Key(k);
        }
        x -= w;
    }
    FleetOp::Key(FLEET_KEYS - 1)
}

/// The two-shard ring the `fleet` proxy builds (ring points depend only
/// on shard ids and vnode counts, never on addresses).
pub fn fleet_ring() -> ShardRing {
    let shards = (0..2)
        .map(|id| ShardInfo {
            id,
            addr: format!("shard-{id}"),
            vnodes: 0,
        })
        .collect();
    ShardRing::new(shards).expect("two distinct shard ids")
}

/// Shard index the proxy routes `request` to. Requests omit `model`;
/// the proxy runs with `--default-model` naming the served model.
pub fn fleet_shard(ring: &ShardRing, model: &str, request: &PredictRequest) -> usize {
    let workload = request.workload.as_deref().unwrap_or("");
    ring.route_index(trace_route_key(
        Some(model),
        &request.design,
        workload,
        request.cycles,
    ))
}

/// One `edit` revision: a netlist upload and the `predict_delta` that
/// reuses the previous revision's cached trace.
#[derive(Debug, Clone)]
pub struct EditOp {
    pub name: String,
    pub verilog: String,
    pub delta: PredictDeltaRequest,
}

/// Per-sub-module variant numbers of revision `r` of session `session`:
/// revision 0 is the base, each later revision changes exactly one
/// sub-module's variant.
pub fn edit_variants(seed: u64, session: u64, revisions: usize) -> Vec<(usize, Vec<u32>)> {
    let mut rng = Rng::for_item(seed, STREAM_EDIT, session);
    let mut variants: Vec<u32> = (0..EDIT_SUBMODULES).map(|_| rng.below(4) as u32).collect();
    let mut out = vec![(usize::MAX, variants.clone())];
    // Every run of eight revisions edits each sub-module once, so each
    // seed weighs early sub-modules (whose edits shift every later
    // sub-module's structure) and late ones alike.
    let first = rng.below(EDIT_SUBMODULES);
    for r in 0..revisions {
        let sm = (first + r) % EDIT_SUBMODULES;
        variants[sm] = (variants[sm] + 1 + rng.below(3) as u32) % 7;
        out.push((sm, variants.clone()));
    }
    out
}

/// Design name of revision `r` of session `session`.
pub fn edit_name(session: u64, r: usize) -> String {
    format!("edit-s{session}-r{r}")
}

/// The revisions of one `edit` session after its base (revision 0):
/// each uploads the revision and predicts it against its predecessor.
pub fn edit_session(seed: u64, session: u64, revisions: usize) -> Result<Vec<EditOp>, String> {
    let variants = edit_variants(seed, session, revisions);
    let mut ops = Vec::with_capacity(revisions);
    for (r, (changed, v)) in variants.iter().enumerate().skip(1) {
        let name = edit_name(session, r);
        let verilog = edit_design(v)?.to_verilog();
        let delta = PredictDeltaRequest {
            id: None,
            model: None,
            design: name.clone(),
            workload: Some("W1".to_owned()),
            workload_name: None,
            cycles: CYCLES,
            phases: None,
            base: Some(DeltaBase {
                design: Some(edit_name(session, r - 1)),
                workload: None,
                workload_name: None,
                cycles: None,
                phases: None,
            }),
            changed_submodules: Some(vec![*changed]),
        };
        ops.push(EditOp {
            name,
            verilog,
            delta,
        });
    }
    Ok(ops)
}

/// Verilog of revision 0 of an `edit` session.
pub fn edit_base(seed: u64, session: u64) -> Result<(String, String), String> {
    let variants = edit_variants(seed, session, 0);
    Ok((
        edit_name(session, 0),
        edit_design(&variants[0].1)?.to_verilog(),
    ))
}

/// The `edit` netlist: one block per sub-module, each fed only by the
/// shared primary inputs, so an edit inside one block can never change
/// another block's toggle patterns. A block's variant picks its mixing
/// cell classes and the length of an inverter tail on its output.
pub fn edit_design(variants: &[u32]) -> Result<Design, String> {
    const PIS: usize = 8;
    const FANOUT: usize = 3;
    let fail = |e: atlas_netlist::BuildError| format!("edit design: {e}");
    let mut b = NetlistBuilder::new("editloop");
    let pis = b.add_inputs(PIS);
    for (s, &variant) in variants.iter().enumerate() {
        let sm = b.add_submodule(format!("top.u{s}"), "block");
        let mix = [CellClass::Xor2, CellClass::Nand2, CellClass::Nor2];
        let mut regs = Vec::new();
        for (i, &pi) in pis.iter().enumerate() {
            let class = mix[(i + variant as usize) % mix.len()];
            let mixed = b
                .add_cell(class, Drive::X1, &[pi, pis[(i + 1 + s) % PIS]], sm)
                .map_err(fail)?;
            regs.push(b.add_dff(mixed, sm).map_err(fail)?);
        }
        let fan = [
            CellClass::And2,
            CellClass::Or2,
            CellClass::Xor2,
            CellClass::Nand2,
            CellClass::Nor2,
            CellClass::Xnor2,
        ];
        let mut layer = Vec::new();
        for (i, &q) in regs.iter().enumerate() {
            for (f, &class) in fan.iter().enumerate().take(FANOUT) {
                let peer = regs[(i + 1 + f) % regs.len()];
                layer.push(b.add_cell(class, Drive::X1, &[q, peer], sm).map_err(fail)?);
            }
        }
        let mut depth = 0;
        while layer.len() > 1 {
            let class = [CellClass::Nand2, CellClass::Nor2, CellClass::Xnor2][depth % 3];
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 {
                    b.add_cell(class, Drive::X1, &[pair[0], pair[1]], sm)
                        .map_err(fail)?
                } else {
                    pair[0]
                });
            }
            layer = next;
            depth += 1;
        }
        let mut out = layer[0];
        for _ in 0..variant {
            out = b
                .add_cell(CellClass::Inv, Drive::X1, &[out], sm)
                .map_err(fail)?;
        }
        b.mark_output(out);
    }
    b.finish().map_err(|e| format!("edit design: {e}"))
}

/// The wire line of a `predict`.
pub fn predict_line(request: &PredictRequest) -> String {
    serde_json::to_string(request).expect("requests serialize")
}

/// The wire line of a `predict_delta` (the body type has no `verb`).
pub fn delta_line(request: &PredictDeltaRequest) -> String {
    let body = serde_json::to_string(request).expect("requests serialize");
    format!("{{\"verb\":\"predict_delta\",{}", &body[1..])
}

/// The wire line of a `load_design`.
pub fn upload_line(name: &str, verilog: &str) -> String {
    let body = serde_json::to_string(&atlas_serve::LoadDesignRequest {
        id: None,
        name: name.to_owned(),
        verilog: verilog.to_owned(),
    })
    .expect("requests serialize");
    format!("{{\"verb\":\"load_design\",{}", &body[1..])
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::OnceLock;

    use atlas_core::{AtlasModel, ExperimentConfig};
    use atlas_serve::ServiceConfig;

    use super::*;
    use crate::run::{fleet_budget, key_bytes};

    /// The benchmark's own model, trained once for the whole test binary.
    fn model() -> &'static (AtlasModel, ExperimentConfig) {
        static MODEL: OnceLock<(AtlasModel, ExperimentConfig)> = OnceLock::new();
        MODEL.get_or_init(|| {
            let cfg = crate::experiment();
            (atlas_core::train_atlas(&cfg).model, cfg)
        })
    }

    /// The first `n` ops of every workload, as the wire lines they send.
    fn streams(seed: u64, n: u64) -> Vec<String> {
        let warm = warm_keys(seed);
        let fleet = fleet_keys(seed);
        let mut lines = Vec::new();
        for i in 0..n {
            lines.push(predict_line(&cold_op(seed, i)));
            lines.push(predict_line(&warm[warm_op(seed, i)]));
            lines.push(match fleet_op(seed, i) {
                FleetOp::Key(k) => predict_line(&fleet[k]),
                FleetOp::Fresh(r) => predict_line(&r),
            });
        }
        for op in edit_session(seed, 0, 8).expect("edit session builds") {
            lines.push(upload_line(&op.name, &op.verilog));
            lines.push(delta_line(&op.delta));
        }
        lines
    }

    #[test]
    fn same_seed_gives_byte_identical_streams_and_another_seed_differs() {
        let a = streams(7, 200);
        assert_eq!(a, streams(7, 200));
        let b = streams(8, 200);
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
        // Every workload's own stream moves with the seed, not just one.
        let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(
            differing > a.len() / 2,
            "{differing} of {} lines differ",
            a.len()
        );
    }

    #[test]
    fn cold_never_repeats_a_trace_key() {
        let mut labels = HashSet::new();
        let mut schedules = HashSet::new();
        for i in 0..5000 {
            let op = cold_op(3, i);
            assert!(labels.insert(op.workload.clone().expect("labelled")));
            let phases = serde_json::to_string(&op.phases).expect("serializes");
            schedules.insert((op.design.clone(), phases));
        }
        // Labels alone make keys unique; schedules are fresh as well.
        assert!(
            schedules.len() > 4990,
            "{} distinct schedules",
            schedules.len()
        );
    }

    #[test]
    fn the_warm_set_fits_the_server_budget() {
        let (model, cfg) = model();
        let bytes = key_bytes(model, cfg).expect("key bytes");
        let total: usize = warm_keys(5).iter().map(|k| bytes[&k.design]).sum();
        let budget = ServiceConfig::default().embedding_cache_bytes;
        assert!(
            total <= budget,
            "warm set {total} B over the {budget} B budget"
        );

        // The per-key estimate is the model's own accounting of a real
        // 300-cycle trace.
        let key = &warm_keys(5)[0];
        let design = cfg.try_design(&key.design).expect("preset");
        let gate = design.generate();
        let lib = cfg.library();
        let data = atlas_core::features::build_submodule_data(&gate, &lib);
        let mut workload = atlas_sim::PhasedWorkload::try_new(
            "w",
            key.phases.clone().expect("schedule"),
            design.seed,
        )
        .expect("valid schedule");
        let trace = atlas_sim::simulate(&gate, &mut workload, CYCLES).expect("simulates");
        let emb = model.embed_trace(&gate, &lib, &data, &trace, 1);
        assert_eq!(emb.approx_bytes(), bytes[&key.design]);
    }

    #[test]
    fn the_fleet_set_exceeds_one_shard_but_fits_both() {
        let (model, cfg) = model();
        let bytes = key_bytes(model, cfg).expect("key bytes");
        for seed in [1, 2, 3] {
            let keys = fleet_keys(seed);
            let (share, budget_mb) = fleet_budget(&keys, &bytes);
            let budget = budget_mb << 20;
            let total: usize = keys.iter().map(|k| bytes[&k.design]).sum();
            assert_eq!(share[0] + share[1], total);
            assert!(
                total > budget,
                "working set {total} B fits one shard's {budget} B"
            );
            assert!(
                share.iter().all(|&s| s <= budget),
                "{share:?} over {budget} B"
            );
            assert!(
                share.iter().all(|&s| s > 0),
                "{share:?}: a shard gets no keys"
            );
        }
    }

    #[test]
    fn edit_sessions_stay_within_the_upload_cap() {
        const { assert!(EDIT_SESSION_REVISIONS < UPLOAD_CAP) };
        assert!(UPLOAD_CAP <= ServiceConfig::default().max_designs);
        let session = edit_session(9, 2, EDIT_SESSION_REVISIONS).expect("builds");
        assert_eq!(session.len(), EDIT_SESSION_REVISIONS);
        let names: HashSet<&str> = session.iter().map(|op| op.name.as_str()).collect();
        assert_eq!(names.len(), session.len());
        assert!(!names.contains(edit_base(9, 2).expect("base").0.as_str()));
        for op in &session {
            assert!(op.verilog.len() <= ServiceConfig::default().max_design_bytes);
        }
        // Each revision changes exactly one sub-module of its predecessor.
        let variants = edit_variants(9, 2, EDIT_SESSION_REVISIONS);
        for pair in variants.windows(2) {
            let changed = pair[0]
                .1
                .iter()
                .zip(&pair[1].1)
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(changed, 1);
        }
    }

    #[test]
    fn edit_revisions_parse_back_to_the_built_netlist() {
        let variants = edit_variants(4, 0, 3);
        for (_, v) in &variants {
            let design = edit_design(v).expect("builds");
            assert_eq!(design.submodules().len(), EDIT_SUBMODULES);
            let parsed = Design::from_verilog(&design.to_verilog()).expect("parses");
            assert_eq!(parsed, design);
        }
    }
}
