//! The output check: served replies against an in-process reference,
//! compared bit for bit, computed outside the timed window.

use std::collections::HashMap;
use std::sync::Arc;

use atlas_core::features::{build_submodule_data, SubmoduleData};
use atlas_core::{AtlasModel, ExperimentConfig};
use atlas_liberty::Library;
use atlas_netlist::Design;
use atlas_serve::protocol::summarize;
use atlas_serve::{
    AtlasService, GroupSummary, PredictDeltaResponse, PredictRequest, PredictResponse, SavedModel,
    ServiceConfig,
};
use atlas_sim::{simulate, PhasedWorkload};

/// The watt values a reply carries, which must match the reference
/// exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Watts {
    pub per_cycle_total_w: Vec<f64>,
    pub mean_total_w: f64,
    pub peak_total_w: f64,
    pub groups: Vec<GroupSummary>,
}

impl From<&PredictResponse> for Watts {
    fn from(r: &PredictResponse) -> Watts {
        Watts {
            per_cycle_total_w: r.per_cycle_total_w.clone(),
            mean_total_w: r.mean_total_w,
            peak_total_w: r.peak_total_w,
            groups: r.groups.clone(),
        }
    }
}

impl From<&PredictDeltaResponse> for Watts {
    fn from(r: &PredictDeltaResponse) -> Watts {
        Watts {
            per_cycle_total_w: r.per_cycle_total_w.clone(),
            mean_total_w: r.mean_total_w,
            peak_total_w: r.peak_total_w,
            groups: r.groups.clone(),
        }
    }
}

/// Bit-for-bit equality of two sets of watt values (`==` on f64 would
/// call `-0.0` and `0.0` equal and every NaN unequal).
pub fn same_bits(served: &Watts, reference: &Watts) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(&served.per_cycle_total_w) == bits(&reference.per_cycle_total_w)
        && served.mean_total_w.to_bits() == reference.mean_total_w.to_bits()
        && served.peak_total_w.to_bits() == reference.peak_total_w.to_bits()
        && served.groups.len() == reference.groups.len()
        && served.groups.iter().zip(&reference.groups).all(|(a, b)| {
            a.group == b.group
                && a.mean_w.to_bits() == b.mean_w.to_bits()
                && a.peak_w.to_bits() == b.peak_w.to_bits()
        })
}

/// A design as the service materializes it: the netlist plus its
/// sub-module data.
pub struct Artifacts {
    pub gate: Design,
    pub data: Vec<SubmoduleData>,
}

/// Reference `predict`s: `AtlasModel::predict_prepared` on the same
/// design, schedule, and cycles the served request named.
pub struct PredictReference<'a> {
    model: &'a AtlasModel,
    experiment: &'a ExperimentConfig,
    lib: Library,
    designs: HashMap<String, (u64, Arc<Artifacts>)>,
}

impl<'a> PredictReference<'a> {
    pub fn new(model: &'a AtlasModel, experiment: &'a ExperimentConfig) -> PredictReference<'a> {
        PredictReference {
            model,
            experiment,
            lib: experiment.library(),
            designs: HashMap::new(),
        }
    }

    fn design(&mut self, name: &str) -> Result<(u64, Arc<Artifacts>), String> {
        if let Some(hit) = self.designs.get(name) {
            return Ok(hit.clone());
        }
        let cfg = self
            .experiment
            .try_design(name)
            .map_err(|e| e.to_string())?;
        let gate = cfg.generate();
        let data = build_submodule_data(&gate, &self.lib);
        let entry = (cfg.seed, Arc::new(Artifacts { gate, data }));
        self.designs.insert(name.to_owned(), entry.clone());
        Ok(entry)
    }

    /// The reply a `predict` of `request` must equal.
    pub fn predict(&mut self, request: &PredictRequest) -> Result<Watts, String> {
        let (seed, design) = self.design(&request.design)?;
        let label = request.workload.clone().unwrap_or_default();
        let phases = request
            .phases
            .clone()
            .ok_or("reference predicts take inline schedules")?;
        let mut workload = PhasedWorkload::try_new(label.clone(), phases, seed)?;
        let trace =
            simulate(&design.gate, &mut workload, request.cycles).map_err(|e| e.to_string())?;
        let power = self
            .model
            .predict_prepared(&design.gate, &self.lib, &design.data, &trace);
        Ok(Watts::from(&summarize(
            request, "", &label, &power, false, false, 0.0,
        )))
    }
}

/// Reference for `predict_delta`: a full `predict` of the same target on
/// an in-process service that never saw the base.
pub struct DeltaReference {
    service: AtlasService,
}

impl DeltaReference {
    pub fn new(saved: SavedModel) -> DeltaReference {
        DeltaReference {
            service: AtlasService::start(
                saved,
                ServiceConfig {
                    workers: 2,
                    ..ServiceConfig::default()
                },
            ),
        }
    }

    /// Upload `verilog` as `name` and predict it in full.
    pub fn predict(
        &self,
        name: &str,
        verilog: &str,
        workload: &str,
        cycles: usize,
    ) -> Result<Watts, String> {
        self.service
            .load_design(name, verilog)
            .map_err(|e| format!("reference upload {name}: {e}"))?;
        let response = self
            .service
            .call(PredictRequest::new(name, workload, cycles))
            .map_err(|e| format!("reference predict {name}: {e}"))?;
        Ok(Watts::from(&response))
    }
}

/// Parse a `predict` reply line; an error reply is a failed op.
pub fn parse_predict(line: &str) -> Result<PredictResponse, String> {
    serde_json::from_str(line).map_err(|_| format!("not a prediction: {line}"))
}

/// Parse a `predict_delta` reply line; an error reply is a failed op.
pub fn parse_delta(line: &str) -> Result<PredictDeltaResponse, String> {
    serde_json::from_str(line).map_err(|_| format!("not a delta prediction: {line}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn watts() -> Watts {
        Watts {
            per_cycle_total_w: vec![0.125, 0.25, 0.375],
            mean_total_w: 0.25,
            peak_total_w: 0.375,
            groups: vec![GroupSummary {
                group: "combinational".to_owned(),
                mean_w: 0.1,
                peak_w: 0.2,
            }],
        }
    }

    #[test]
    fn identical_watts_pass() {
        assert!(same_bits(&watts(), &watts()));
    }

    #[test]
    fn one_perturbed_watt_value_fails() {
        let reference = watts();
        let mut served = watts();
        served.per_cycle_total_w[1] = f64::from_bits(served.per_cycle_total_w[1].to_bits() + 1);
        assert!(!same_bits(&served, &reference));

        let mut served = watts();
        served.groups[0].peak_w = f64::from_bits(served.groups[0].peak_w.to_bits() + 1);
        assert!(!same_bits(&served, &reference));

        let mut served = watts();
        served.mean_total_w = f64::from_bits(served.mean_total_w.to_bits() - 1);
        assert!(!same_bits(&served, &reference));
    }

    #[test]
    fn a_reply_through_the_wire_format_keeps_its_bits() {
        let response = PredictResponse {
            id: Some(3),
            model: "default".to_owned(),
            design: "C2".to_owned(),
            workload: "cold-0".to_owned(),
            cycles: 3,
            cache_hit: false,
            design_cache_hit: false,
            latency_ms: 1.5,
            mean_total_w: 0.1 + 0.2,
            peak_total_w: 1.0 / 3.0,
            groups: watts().groups,
            per_cycle_total_w: vec![0.1 + 0.2, 1.0 / 3.0, 2f64.sqrt()],
        };
        let line = atlas_serve::protocol::render_result(&Ok(response.clone()));
        let parsed = parse_predict(&line).expect("parses");
        assert!(same_bits(&Watts::from(&parsed), &Watts::from(&response)));
        assert!(parse_predict(r#"{"id":1,"error":"boom","kind":"internal"}"#).is_err());
    }
}
