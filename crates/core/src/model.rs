//! The deployable ATLAS model.

use std::collections::HashMap;

use atlas_liberty::{Library, PowerGroup};
use atlas_netlist::{Design, Stage};
use atlas_nn::{EncoderState, InferenceEncoder};
use atlas_power::PowerTrace;
use atlas_sim::ToggleTrace;
use serde::{Deserialize, Serialize};

use crate::features::{build_submodule_data, SideFeatures, SideTable, SubmoduleData};
use crate::finetune::PowerHeads;

/// Numeric precision of inference. f64 is the only one; the type stays
/// only as [`AtlasModel::prepare`]'s argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Full precision, with bit-parity guarantees.
    F64,
}

/// A frozen inference encoder, built **once** per model load by
/// [`AtlasModel::prepare`] and reused for every trace embedded against
/// that model.
pub type PreparedEncoder = InferenceEncoder;

/// Stage-one inference output for one sub-module across a whole trace:
/// per-cycle encoder embeddings and side features, plus the item-level
/// reuse keys ([`graph_fp`](Self::graph_fp) × per-cycle pattern digests)
/// that make the table delta-capable — any cycle of any cached trace
/// whose (structure, toggle pattern) keys match can donate its row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmoduleEmbeddings {
    /// Index of the sub-module in its design.
    pub submodule: usize,
    /// `embeddings[cycle]` — that cycle's graph embedding.
    pub embeddings: Vec<Vec<f64>>,
    /// `sides[cycle]` — the toggle-weighted side features for that cycle.
    pub sides: Vec<SideFeatures>,
    /// [`SubmoduleData::structural_fingerprint`] of the graph these rows
    /// were encoded against. Rows are reusable only under an equal
    /// fingerprint (same cells, classes, static features, adjacency).
    pub graph_fp: u64,
    /// `pattern_digests[cycle]` — FNV-1a digest of that cycle's packed
    /// toggle bitset. Equal digests (under equal `graph_fp`) mean
    /// bit-identical encoder input, so the delta path copies the row
    /// instead of re-encoding; 64-bit collisions are treated as
    /// negligible.
    pub pattern_digests: Vec<u64>,
}

/// Everything stage two (the power heads) needs, for every sub-module and
/// cycle of one (design, workload trace) pair.
///
/// This is the expensive, **cacheable** part of ATLAS inference: feature
/// construction and encoder forwards dominate the prediction cost, and
/// both are fully determined by the design and the toggle trace. A
/// serving layer can keep `TraceEmbeddings` keyed by (design, workload,
/// cycles) and answer repeat requests with only the cheap head stage
/// ([`AtlasModel::predict_from_embeddings`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceEmbeddings {
    design: String,
    workload: String,
    cycles: usize,
    n_submodules: usize,
    per_submodule: Vec<SubmoduleEmbeddings>,
}

impl TraceEmbeddings {
    /// Number of cycles embedded.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Per-sub-module embedding tables.
    pub fn per_submodule(&self) -> &[SubmoduleEmbeddings] {
        &self.per_submodule
    }

    /// Approximate heap size in bytes (for cache accounting).
    pub fn approx_bytes(&self) -> usize {
        self.per_submodule
            .iter()
            .map(|s| {
                s.embeddings
                    .iter()
                    .map(|r| r.len() * std::mem::size_of::<f64>())
                    .sum::<usize>()
                    + s.sides.len() * std::mem::size_of::<SideFeatures>()
                    + s.pattern_digests.len() * std::mem::size_of::<u64>()
            })
            .sum()
    }
}

/// What [`AtlasModel::embed_trace_delta_with`] reused versus recomputed —
/// the observability half of the delta contract (the correctness half is
/// bit-identity, which needs no counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DeltaStats {
    /// Unique toggle patterns whose rows were copied from the base.
    pub reused_patterns: usize,
    /// Unique toggle patterns that had to run the encoder.
    pub recomputed_patterns: usize,
    /// (sub-module × cycle) items answered from reused rows.
    pub reused_cycles: usize,
    /// (sub-module × cycle) items answered from freshly encoded rows.
    pub recomputed_cycles: usize,
}

/// Digest of one packed toggle pattern: FNV-1a over the node count and
/// the bitset words. The reuse key of one (sub-module × cycle) item.
fn pattern_digest(nodes: usize, bits: &[u64]) -> u64 {
    crate::features::fnv1a64(
        nodes
            .to_le_bytes()
            .into_iter()
            .chain(bits.iter().flat_map(|w| w.to_le_bytes())),
    )
}

/// Deterministic LPT packing shared by both embed phases: items sorted
/// by estimated work, each placed on the least-loaded thread (stable
/// sort, first-minimum tie-break), so scheduling never depends on timing.
fn lpt_bins(weights: &[usize], threads: usize) -> Vec<Vec<usize>> {
    let threads = threads.clamp(1, weights.len().max(1));
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
    let mut bins: Vec<Vec<usize>> = vec![Vec::new(); threads];
    let mut load = vec![0usize; threads];
    for i in order {
        let t = (0..threads).min_by_key(|&t| load[t]).unwrap_or(0);
        load[t] += weights[i];
        bins[t].push(i);
    }
    bins
}

/// Split `totals[sm]` units of each sub-module into only as many
/// contiguous ranges as thread balance needs: work smaller than a
/// thread's fair share stays whole, a dominating sub-module cuts into
/// enough pieces to occupy every thread.
fn ranged_items(
    data: &[SubmoduleData],
    totals: &[usize],
    threads: usize,
) -> Vec<(usize, usize, usize)> {
    let total_work: usize = data
        .iter()
        .zip(totals)
        .map(|(s, &t)| s.node_count() * t)
        .sum();
    let work_target = total_work.div_ceil(threads.max(1)).max(1);
    let mut items = Vec::new();
    for (sm, (smd, &total)) in data.iter().zip(totals).enumerate() {
        if total == 0 {
            continue;
        }
        let splits = (smd.node_count() * total).div_ceil(work_target).max(1);
        let item_len = total.div_ceil(splits).max(1);
        let mut start = 0;
        while start < total {
            let len = item_len.min(total - start);
            items.push((sm, start, len));
            start += len;
        }
    }
    items
}

/// Phase-1 output: per (sub-module, cycle) side features, and each
/// sub-module's cycles collapsed onto its whole-trace unique
/// toggle-pattern set (`pattern_of[sm][cycle]` indexes `uniq_bits[sm]`
/// and its digest `uniq_digests[sm]`).
struct TraceScan {
    sides_of: Vec<Vec<SideFeatures>>,
    pattern_of: Vec<Vec<usize>>,
    uniq_bits: Vec<Vec<Vec<u64>>>,
    uniq_digests: Vec<Vec<u64>>,
}

/// Phase 1 of the embed: (sub-module × cycle-range) items pack each
/// cycle's toggles into a bitset and compute its side features, then
/// the bitsets merge per sub-module into one whole-trace unique
/// toggle-pattern set (workloads repeat patterns — idle phases almost
/// every cycle — and deduplicating across the whole trace keeps the hit
/// rate independent of how thread balance split the sub-module).
fn scan_trace(
    gate: &Design,
    lib: &Library,
    data: &[SubmoduleData],
    trace: &ToggleTrace,
    threads: usize,
) -> TraceScan {
    let cycles = trace.cycles();
    let scan_items = ranged_items(data, &vec![cycles; data.len()], threads);
    let scan_weights: Vec<usize> = scan_items
        .iter()
        .map(|&(sm, _, len)| data[sm].node_count() * len)
        .collect();
    type ScanOut = (usize, usize, Vec<Vec<u64>>, Vec<SideFeatures>);
    let scans: Vec<ScanOut> = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for bin in lpt_bins(&scan_weights, threads) {
            if bin.is_empty() {
                continue;
            }
            let scan_items = &scan_items;
            handles.push(scope.spawn(move |_| {
                let mut local: Vec<ScanOut> = Vec::with_capacity(bin.len());
                for i in bin {
                    let (sm, start, len) = scan_items[i];
                    let smd = &data[sm];
                    let n = smd.node_count();
                    let words = n.div_ceil(64);
                    let mut bits_per_cycle = Vec::with_capacity(len);
                    for t in start..start + len {
                        let mut bits = vec![0u64; words];
                        for (node, &cell) in smd.cells().iter().enumerate() {
                            if trace.cell_toggled(gate, t, cell) {
                                bits[node / 64] |= 1 << (node % 64);
                            }
                        }
                        bits_per_cycle.push(bits);
                    }
                    let table = SideTable::new(smd, gate, lib, trace);
                    let sides = (start..start + len)
                        .map(|t| table.side_features(gate, trace, t))
                        .collect();
                    local.push((sm, start, bits_per_cycle, sides));
                }
                local
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    })
    .expect("scoped threads join");

    let mut sides_of: Vec<Vec<SideFeatures>> = data
        .iter()
        .map(|_| vec![SideFeatures::default(); cycles])
        .collect();
    let mut bits_of: Vec<Vec<Vec<u64>>> = data.iter().map(|_| vec![Vec::new(); cycles]).collect();
    for (sm, start, bits_per_cycle, sides) in scans {
        for (off, b) in bits_per_cycle.into_iter().enumerate() {
            bits_of[sm][start + off] = b;
        }
        for (off, s) in sides.into_iter().enumerate() {
            sides_of[sm][start + off] = s;
        }
    }
    let mut pattern_of: Vec<Vec<usize>> = Vec::with_capacity(data.len());
    let mut uniq_bits: Vec<Vec<Vec<u64>>> = Vec::with_capacity(data.len());
    for bits_per_cycle in bits_of {
        let mut uniq: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut uniqs: Vec<Vec<u64>> = Vec::new();
        let mut slots = Vec::with_capacity(cycles);
        for bits in bits_per_cycle {
            let slot = match uniq.get(&bits) {
                Some(&slot) => slot,
                None => {
                    let slot = uniqs.len();
                    uniqs.push(bits.clone());
                    uniq.insert(bits, slot);
                    slot
                }
            };
            slots.push(slot);
        }
        pattern_of.push(slots);
        uniq_bits.push(uniqs);
    }
    let uniq_digests = data
        .iter()
        .zip(&uniq_bits)
        .map(|(smd, uniqs)| {
            uniqs
                .iter()
                .map(|bits| pattern_digest(smd.node_count(), bits))
                .collect()
        })
        .collect();
    TraceScan {
        sides_of,
        pattern_of,
        uniq_bits,
        uniq_digests,
    }
}

/// Phase 2 of the embed: run the encoder's cycle-blocked batched
/// forward over the selected unique patterns only (`slots[sm]` indexes
/// `uniq_bits[sm]`: the patterns no base could donate) and store each
/// pattern's row at `rows[sm][slot]`. Rows are position- and
/// chunking-independent — the encoder is a pure function of (graph,
/// features) — which is exactly why a subset encode stays bit-identical
/// to encoding everything.
fn encode_unique(
    encoder: &InferenceEncoder,
    data: &[SubmoduleData],
    uniq_bits: &[Vec<Vec<u64>>],
    slots: &[Vec<usize>],
    threads: usize,
    rows: &mut [Vec<Vec<f64>>],
) {
    let counts: Vec<usize> = slots.iter().map(|s| s.len()).collect();
    let enc_items = ranged_items(data, &counts, threads);
    let enc_weights: Vec<usize> = enc_items
        .iter()
        .map(|&(sm, _, len)| data[sm].node_count() * len)
        .collect();
    type EncOut = (usize, usize, Vec<Vec<f64>>);
    let encoded: Vec<EncOut> = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for bin in lpt_bins(&enc_weights, threads) {
            if bin.is_empty() {
                continue;
            }
            let enc_items = &enc_items;
            handles.push(scope.spawn(move |_| {
                let mut local: Vec<EncOut> = Vec::with_capacity(bin.len());
                for i in bin {
                    let (sm, start, len) = enc_items[i];
                    let smd = &data[sm];
                    let bits = &uniq_bits[sm];
                    let pick = &slots[sm];
                    // Each pattern's features are expanded from its
                    // bitset straight into the chunk's stacked operand
                    // (no second trace scan), so live feature memory
                    // stays within the encoder's chunk budget.
                    let out = encoder.encode_graph_batch_fill(
                        smd.adj(),
                        len,
                        encoder.cycle_chunk(smd.node_count()),
                        |u, dst| smd.write_features_from_bits(&bits[pick[start + u]], dst),
                    );
                    local.push((sm, start, out));
                }
                local
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    })
    .expect("scoped threads join");

    for (sm, start, out) in encoded {
        for (&slot, r) in slots[sm][start..].iter().zip(out) {
            rows[sm][slot] = r;
        }
    }
}

/// Resolve a `threads` argument (`0` = auto: available parallelism
/// capped at 8).
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(8)
    } else {
        threads
    }
}

/// Final step of the embed: every cycle copies its unique pattern's
/// row, and the item-level reuse keys (graph fingerprint, per-cycle
/// pattern digests) are stamped alongside.
fn assemble_embeddings(
    gate: &Design,
    trace: &ToggleTrace,
    data: &[SubmoduleData],
    mut scan: TraceScan,
    uniq_rows: &[Vec<Vec<f64>>],
) -> TraceEmbeddings {
    let per_submodule: Vec<SubmoduleEmbeddings> = data
        .iter()
        .enumerate()
        .map(|(sm, smd)| SubmoduleEmbeddings {
            submodule: smd.submodule().index(),
            embeddings: scan.pattern_of[sm]
                .iter()
                .map(|&s| uniq_rows[sm][s].clone())
                .collect(),
            sides: std::mem::take(&mut scan.sides_of[sm]),
            graph_fp: smd.structural_fingerprint(),
            pattern_digests: scan.pattern_of[sm]
                .iter()
                .map(|&s| scan.uniq_digests[sm][s])
                .collect(),
        })
        .collect();
    TraceEmbeddings {
        design: gate.name().to_owned(),
        workload: trace.workload().to_owned(),
        cycles: trace.cycles(),
        n_submodules: gate.submodules().len(),
        per_submodule,
    }
}

/// The one embed path behind [`AtlasModel::embed_trace_with`] (no base)
/// and [`AtlasModel::embed_trace_delta_with`]: scan, copy every unique
/// pattern's row that `base` can donate (equal sub-module fingerprint and
/// pattern digest), encode the rest, assemble.
fn embed(
    encoder: &InferenceEncoder,
    gate: &Design,
    lib: &Library,
    data: &[SubmoduleData],
    trace: &ToggleTrace,
    threads: usize,
    base: Option<&TraceEmbeddings>,
) -> (TraceEmbeddings, DeltaStats) {
    let threads = resolve_threads(threads);
    let scan = scan_trace(gate, lib, data, trace, threads);
    let base_by_sm: HashMap<usize, &SubmoduleEmbeddings> = base
        .map(|b| b.per_submodule.iter().map(|s| (s.submodule, s)).collect())
        .unwrap_or_default();

    let mut stats = DeltaStats::default();
    let mut uniq_rows: Vec<Vec<Vec<f64>>> = Vec::with_capacity(data.len());
    let mut missing_slots: Vec<Vec<usize>> = Vec::with_capacity(data.len());
    for (sm, smd) in data.iter().enumerate() {
        let donor = base_by_sm
            .get(&smd.submodule().index())
            .filter(|b| b.graph_fp == smd.structural_fingerprint());
        // First base cycle per digest; any occurrence donates the same
        // row bits, so first-wins is as good as any.
        let mut digest_cycle: HashMap<u64, usize> = HashMap::new();
        if let Some(b) = donor {
            for (t, &d) in b.pattern_digests.iter().enumerate() {
                digest_cycle.entry(d).or_insert(t);
            }
        }
        let digests = &scan.uniq_digests[sm];
        let mut rows = vec![Vec::new(); digests.len()];
        let mut missing = Vec::new();
        for (slot, digest) in digests.iter().enumerate() {
            match (donor, digest_cycle.get(digest)) {
                (Some(b), Some(&t)) => {
                    rows[slot] = b.embeddings[t].clone();
                    stats.reused_patterns += 1;
                }
                _ => {
                    missing.push(slot);
                    stats.recomputed_patterns += 1;
                }
            }
        }
        uniq_rows.push(rows);
        missing_slots.push(missing);
    }

    encode_unique(
        encoder,
        data,
        &scan.uniq_bits,
        &missing_slots,
        threads,
        &mut uniq_rows,
    );
    for (sm, slots) in scan.pattern_of.iter().enumerate() {
        let mut fresh = vec![false; uniq_rows[sm].len()];
        for &slot in &missing_slots[sm] {
            fresh[slot] = true;
        }
        for &slot in slots {
            if fresh[slot] {
                stats.recomputed_cycles += 1;
            } else {
                stats.reused_cycles += 1;
            }
        }
    }
    let out = assemble_embeddings(gate, trace, data, scan, &uniq_rows);
    (out, stats)
}

/// A trained ATLAS model: frozen encoder + fine-tuned power heads.
///
/// Input at inference time is exactly what a designer has *before* layout:
/// the gate-level netlist, the technology library, and a workload toggle
/// trace. Output is the predicted per-cycle post-layout power of every
/// sub-module and power group — no layout information required (paper §II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AtlasModel {
    encoder: EncoderState,
    heads: PowerHeads,
}

impl AtlasModel {
    /// Assemble a model from its trained parts.
    pub fn new(encoder: EncoderState, heads: PowerHeads) -> AtlasModel {
        AtlasModel { encoder, heads }
    }

    /// The frozen encoder weights.
    pub fn encoder(&self) -> &EncoderState {
        &self.encoder
    }

    /// The fine-tuned heads.
    pub fn heads(&self) -> &PowerHeads {
        &self.heads
    }

    /// Serialize to JSON (model persistence).
    ///
    /// # Errors
    ///
    /// Returns any `serde_json` serialization error.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Deserialize from JSON.
    ///
    /// # Errors
    ///
    /// Returns any `serde_json` parse error.
    pub fn from_json(json: &str) -> Result<AtlasModel, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Predict per-cycle post-layout power for a **gate-level** design
    /// under the given toggle trace. Sub-module embeddings are computed on
    /// worker threads (the trace is the only per-cycle input).
    ///
    /// # Panics
    ///
    /// Panics if `gate` is a post-layout design (ATLAS's whole point is to
    /// not need one) or if the trace does not belong to `gate`.
    pub fn predict(&self, gate: &Design, lib: &Library, trace: &ToggleTrace) -> PowerTrace {
        assert_eq!(
            gate.stage(),
            Stage::GateLevel,
            "ATLAS predicts from the gate-level netlist"
        );
        let data = build_submodule_data(gate, lib);
        self.predict_prepared(gate, lib, &data, trace)
    }

    /// [`predict`](Self::predict) with pre-built sub-module data, so
    /// repeated predictions (new workloads on the same design) skip
    /// preprocessing.
    ///
    /// Equivalent to [`embed_trace`](Self::embed_trace) followed by
    /// [`predict_from_embeddings`](Self::predict_from_embeddings); call
    /// the stages separately to cache the expensive first one.
    pub fn predict_prepared(
        &self,
        gate: &Design,
        lib: &Library,
        data: &[SubmoduleData],
        trace: &ToggleTrace,
    ) -> PowerTrace {
        let embeddings = self.embed_trace(gate, lib, data, trace, 0);
        self.predict_from_embeddings(&embeddings)
    }

    /// Build the frozen inference encoder — the once-per-load
    /// conversion point. Keep the result and pass it to
    /// [`embed_trace_with`](Self::embed_trace_with) so repeated traces
    /// skip re-cloning the weights.
    pub fn prepare(&self, _precision: Precision) -> PreparedEncoder {
        InferenceEncoder::from_state(&self.encoder)
    }

    /// Inference stage one (expensive, cacheable) —
    /// [`embed_trace_with`](Self::embed_trace_with) against a freshly
    /// prepared encoder.
    pub fn embed_trace(
        &self,
        gate: &Design,
        lib: &Library,
        data: &[SubmoduleData],
        trace: &ToggleTrace,
        threads: usize,
    ) -> TraceEmbeddings {
        self.embed_trace_with(
            &self.prepare(Precision::F64),
            gate,
            lib,
            data,
            trace,
            threads,
        )
    }

    /// Inference stage one (expensive, cacheable): per-cycle feature
    /// construction, encoder forwards, and side features for every
    /// sub-module of the trace, evaluated by a prepared encoder.
    ///
    /// Work runs in two parallel phases over `threads` std threads (`0` =
    /// auto: available parallelism capped at 8), both packed by estimated
    /// work (longest-first) so one huge sub-module splits across threads
    /// instead of straggling the scope:
    ///
    /// 1. **Scan** — (sub-module × cycle-range) items pack each cycle's
    ///    toggles into a bitset and compute its side features. The bitsets
    ///    are then merged per sub-module into one **whole-trace** unique
    ///    toggle-pattern set: workloads repeat patterns (idle phases
    ///    repeat them almost every cycle), and deduplicating across the
    ///    whole trace — not per item, so a pattern shared by two items'
    ///    ranges is still encoded once — fixes the old per-item window
    ///    whose hit rate degraded exactly when thread balance split a
    ///    sub-module finely.
    /// 2. **Encode** — (sub-module × unique-pattern-range) items run the
    ///    encoder's cycle-blocked batched forward (one matmul per layer
    ///    per chunk) over unique patterns only, expanding features from
    ///    each pattern's bitset straight into the chunk's stacked operand.
    ///
    /// Every cycle's embedding is then the copy of its pattern's — exact,
    /// because the encoder is a pure function of (graph, features). The
    /// results are bit-identical to the per-cycle path for every thread
    /// count and chunking.
    pub fn embed_trace_with(
        &self,
        encoder: &PreparedEncoder,
        gate: &Design,
        lib: &Library,
        data: &[SubmoduleData],
        trace: &ToggleTrace,
        threads: usize,
    ) -> TraceEmbeddings {
        embed(encoder, gate, lib, data, trace, threads, None).0
    }

    /// Incremental sibling of [`embed_trace_with`](Self::embed_trace_with)
    /// for interactive what-if loops: re-embed `trace` while reusing every
    /// (sub-module × cycle) item whose encoder input is provably unchanged
    /// from `base`.
    ///
    /// The scan phase (toggle bitsets + side features) always runs in
    /// full — it is the cheap, linear part and it is what *proves* which
    /// items changed: a row is copied from the base only when the
    /// sub-module's structural fingerprint and the cycle's toggle-pattern
    /// digest both match, so the result is bit-identical to a full embed
    /// no matter how wrong a caller's edit description is (the expensive
    /// encoder forwards run only for patterns the base cannot donate).
    /// Appended cycles, edited sub-modules, and `base`s of different
    /// lengths or designs all reduce to the same rule. 64-bit digest
    /// collisions are treated as negligible.
    pub fn embed_trace_delta_with(
        &self,
        encoder: &PreparedEncoder,
        gate: &Design,
        lib: &Library,
        data: &[SubmoduleData],
        trace: &ToggleTrace,
        threads: usize,
        base: &TraceEmbeddings,
    ) -> (TraceEmbeddings, DeltaStats) {
        embed(encoder, gate, lib, data, trace, threads, Some(base))
    }

    /// Inference stage two (cheap): run the fine-tuned heads over
    /// precomputed [`TraceEmbeddings`]. This is all a serving layer pays
    /// on a cache hit.
    pub fn predict_from_embeddings(&self, embeddings: &TraceEmbeddings) -> PowerTrace {
        let mut out = PowerTrace::new(
            embeddings.design.clone(),
            embeddings.workload.clone(),
            embeddings.cycles,
            embeddings.n_submodules,
        );
        for sm in &embeddings.per_submodule {
            for (t, (emb, side)) in sm.embeddings.iter().zip(&sm.sides).enumerate() {
                let [comb, reg, ct] = self.heads.predict_groups(emb, side);
                let mem = self.heads.memory.predict(side);
                out.add(t, sm.submodule, PowerGroup::Combinational.index(), comb);
                out.add(t, sm.submodule, PowerGroup::Register.index(), reg);
                out.add(t, sm.submodule, PowerGroup::ClockTree.index(), ct);
                out.add(t, sm.submodule, PowerGroup::Memory.index(), mem);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use atlas_designs::DesignConfig;
    use atlas_layout::LayoutConfig;
    use atlas_nn::InferenceEncoder;

    use super::*;
    use crate::bundle::DesignBundle;
    use crate::finetune::{finetune, FinetuneConfig};
    use crate::pretrain::{pretrain, PretrainConfig};

    fn tiny_model() -> (AtlasModel, DesignBundle, Library) {
        let lib = Library::synthetic_40nm();
        let bundle = DesignBundle::prepare(
            &DesignConfig::tiny(),
            &lib,
            &LayoutConfig::default(),
            "W1",
            10,
        );
        let bundles = vec![bundle];
        let (encoder, _) = pretrain(&bundles, &PretrainConfig::test_tiny());
        let state = encoder.state();
        let heads = finetune(
            &InferenceEncoder::from_state(&state),
            &bundles,
            &lib,
            &FinetuneConfig::test_tiny(),
        );
        (
            AtlasModel::new(state, heads),
            bundles.into_iter().next().expect("one bundle"),
            lib,
        )
    }

    #[test]
    fn prediction_has_label_shape_and_is_positive() {
        let (model, bundle, lib) = tiny_model();
        let pred = model.predict(&bundle.gate, &lib, &bundle.gate_trace);
        assert_eq!(pred.cycles(), bundle.gate_trace.cycles());
        for t in 0..pred.cycles() {
            assert!(pred.total(t) >= 0.0);
        }
        // Predicts a nonzero clock tree despite seeing no layout — the
        // cross-stage claim in miniature.
        let ct: f64 = pred.group_series(PowerGroup::ClockTree).iter().sum();
        assert!(ct > 0.0, "clock-tree prediction must be nonzero");
    }

    #[test]
    fn training_fit_is_sane() {
        // On its own training design, even a tiny model must beat the
        // gate-level baseline for total power.
        let (model, bundle, lib) = tiny_model();
        let pred = model.predict(&bundle.gate, &lib, &bundle.gate_trace);
        let baseline = atlas_power::compute_power(&bundle.gate, &lib, &bundle.gate_trace);
        let labels = &bundle.labels;
        let label_series: Vec<f64> = (0..labels.cycles())
            .map(|t| labels.non_memory_total(t))
            .collect();
        let pred_series: Vec<f64> = (0..pred.cycles())
            .map(|t| pred.non_memory_total(t))
            .collect();
        let base_series: Vec<f64> = (0..baseline.cycles())
            .map(|t| baseline.non_memory_total(t))
            .collect();
        let atlas_err = atlas_power::metrics::mape(&label_series, &pred_series);
        let base_err = atlas_power::metrics::mape(&label_series, &base_series);
        assert!(
            atlas_err < base_err,
            "ATLAS ({atlas_err:.1}%) must beat the gate-level baseline ({base_err:.1}%)"
        );
    }

    #[test]
    fn staged_inference_matches_fused_path() {
        let (model, bundle, lib) = tiny_model();
        let data = build_submodule_data(&bundle.gate, &lib);
        let fused = model.predict_prepared(&bundle.gate, &lib, &data, &bundle.gate_trace);
        let embeddings = model.embed_trace(&bundle.gate, &lib, &data, &bundle.gate_trace, 2);
        assert_eq!(embeddings.cycles(), bundle.gate_trace.cycles());
        assert!(embeddings.approx_bytes() > 0);
        let staged = model.predict_from_embeddings(&embeddings);
        assert_eq!(fused, staged, "stage split must not change predictions");
    }

    #[test]
    fn delta_on_identical_trace_reuses_everything_bit_identically() {
        let (model, bundle, lib) = tiny_model();
        let data = build_submodule_data(&bundle.gate, &lib);
        let enc = model.prepare(Precision::F64);
        let full = model.embed_trace_with(&enc, &bundle.gate, &lib, &data, &bundle.gate_trace, 2);
        let (delta, stats) = model.embed_trace_delta_with(
            &enc,
            &bundle.gate,
            &lib,
            &data,
            &bundle.gate_trace,
            3,
            &full,
        );
        assert_eq!(
            stats.recomputed_patterns, 0,
            "identical trace recomputed nothing"
        );
        assert!(stats.reused_patterns > 0);
        assert_eq!(stats.recomputed_cycles, 0);
        for (a, b) in full.per_submodule().iter().zip(delta.per_submodule()) {
            assert_eq!(a.embeddings, b.embeddings, "rows must be bit-identical");
            assert_eq!(a.pattern_digests, b.pattern_digests);
            assert_eq!(a.graph_fp, b.graph_fp);
            assert_eq!(a.sides, b.sides);
        }
        assert_eq!(
            model.predict_from_embeddings(&full),
            model.predict_from_embeddings(&delta)
        );
    }

    #[test]
    fn delta_on_appended_cycles_matches_full_recompute() {
        use atlas_sim::{simulate, PhasedWorkload};
        let (model, bundle, lib) = tiny_model();
        let data = build_submodule_data(&bundle.gate, &lib);
        let enc = model.prepare(Precision::F64);
        let short = simulate(&bundle.gate, &mut PhasedWorkload::w1(1), 7).expect("simulates");
        let long = simulate(&bundle.gate, &mut PhasedWorkload::w1(1), 13).expect("simulates");
        let base = model.embed_trace_with(&enc, &bundle.gate, &lib, &data, &short, 2);
        let full = model.embed_trace_with(&enc, &bundle.gate, &lib, &data, &long, 2);
        let (delta, stats) =
            model.embed_trace_delta_with(&enc, &bundle.gate, &lib, &data, &long, 2, &base);
        assert!(
            stats.reused_patterns > 0,
            "the shared prefix must donate rows"
        );
        for (a, b) in full.per_submodule().iter().zip(delta.per_submodule()) {
            assert_eq!(a.embeddings, b.embeddings, "rows must be bit-identical");
            assert_eq!(a.sides, b.sides);
        }
        assert_eq!(
            model.predict_from_embeddings(&full),
            model.predict_from_embeddings(&delta)
        );
    }

    #[test]
    fn delta_from_foreign_base_donates_nothing_but_stays_exact() {
        let (model, bundle, lib) = tiny_model();
        let data = build_submodule_data(&bundle.gate, &lib);
        let enc = model.prepare(Precision::F64);
        let full = model.embed_trace_with(&enc, &bundle.gate, &lib, &data, &bundle.gate_trace, 2);
        // A base encoded against other graph structures: same toggle
        // patterns, different fingerprints, and rows that would be wrong
        // if any were copied.
        let mut foreign = full.clone();
        for sm in &mut foreign.per_submodule {
            sm.graph_fp ^= 1;
            for row in &mut sm.embeddings {
                row.iter_mut().for_each(|v| *v = -1.0);
            }
        }
        let (delta, stats) = model.embed_trace_delta_with(
            &enc,
            &bundle.gate,
            &lib,
            &data,
            &bundle.gate_trace,
            2,
            &foreign,
        );
        assert_eq!(
            stats.reused_patterns, 0,
            "fingerprint mismatch must donate nothing"
        );
        assert!(stats.recomputed_patterns > 0);
        for (a, b) in full.per_submodule().iter().zip(delta.per_submodule()) {
            assert_eq!(a.embeddings, b.embeddings);
        }
    }

    #[test]
    fn json_roundtrip() {
        let (model, _, _) = tiny_model();
        let json = model.to_json().expect("serializes");
        let back = AtlasModel::from_json(&json).expect("parses");
        assert_eq!(model, back);
    }

    #[test]
    fn rejects_post_layout_input() {
        let (model, bundle, lib) = tiny_model();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = model.predict(&bundle.post, &lib, &bundle.post_trace);
        }));
        assert!(result.is_err());
    }
}
