//! Cross-validation: the analytic overlap composition used by the
//! figure sweeps must agree with an explicit event-engine schedule of
//! the same per-layer tasks. This guards the Fig. 5 composition rules
//! against drift — if someone changes the analytic `layer_costs`
//! overlap logic, this test catches divergence from the schedule it is
//! supposed to summarise.

use vrex::hwsim::Engine;
use vrex::model::ModelConfig;
use vrex::system::pipeline::{layer_costs, Workload};
use vrex::system::{Method, PlatformSpec};

/// Schedules `n_layers` of the V-Rex pipeline explicitly: the LXE runs
/// dense+attention per layer; the DRE runs prediction concurrently; the
/// PCIe link fetches for the next layer ahead of time. The makespan
/// should match `n_layers × layer_ps` from the analytic model within a
/// small tolerance (the analytic model charges a steady-state layer).
fn engine_makespan(platform: &PlatformSpec, method: Method, w: &Workload, n_layers: u64) -> u64 {
    let c = layer_costs(platform, method, w);
    let mut e = Engine::new();
    let lxe = e.add_resource("LXE");
    let dre = e.add_resource("DRE");
    let pcie = e.add_resource("PCIe");

    let mut prev_layer_done = None;
    let mut fetch_done: Option<vrex::hwsim::TaskId> = None;
    for _ in 0..n_layers {
        let deps: Vec<_> = prev_layer_done.into_iter().chain(fetch_done).collect();
        // Compute of this layer waits for its (prefetched) KV.
        let compute = e.schedule(lxe, c.dense_ps + c.attention_ps, &deps, "compute", 0);
        // Prediction for the next layer runs on the DRE beside compute.
        let pred = e.schedule(dre, c.prediction_ps, &deps, "pred", 0);
        // Fetch for the next layer starts once its selection is known.
        fetch_done = Some(e.schedule(pcie, c.fetch_ps, &[pred], "fetch", c.fetch_bytes));
        prev_layer_done = Some(compute);
    }
    e.makespan()
}

#[test]
fn analytic_layer_model_matches_event_schedule_for_vrex() {
    let model = ModelConfig::llama3_8b();
    let platform = PlatformSpec::vrex8();
    for cache in [1_000usize, 10_000, 40_000] {
        let w = Workload::frame(&model, cache, 1);
        let c = layer_costs(&platform, Method::ReSV, &w);
        let n_layers = model.n_layers as u64;
        let analytic = c.layer_ps * n_layers;
        let scheduled = engine_makespan(&platform, Method::ReSV, &w, n_layers);
        // The schedule may add up to ~one layer of pipeline fill/drain.
        let slack = c.layer_ps + c.fetch_ps + c.prediction_ps;
        assert!(
            scheduled <= analytic + slack,
            "at {cache}: scheduled {scheduled} far above analytic {analytic}"
        );
        assert!(
            scheduled + slack >= analytic,
            "at {cache}: scheduled {scheduled} far below analytic {analytic}"
        );
    }
}

#[test]
fn fetch_bound_regime_is_visible_in_the_schedule() {
    // At 40K the V-Rex frame stage is offload-bound: the PCIe resource
    // should be the busiest in the explicit schedule.
    let model = ModelConfig::llama3_8b();
    let platform = PlatformSpec::vrex8();
    let w = Workload::frame(&model, 40_000, 1);
    let c = layer_costs(&platform, Method::ReSV, &w);
    assert!(
        c.fetch_ps > c.dense_ps + c.attention_ps,
        "expected fetch-bound at 40K: fetch {} vs compute {}",
        c.fetch_ps,
        c.dense_ps + c.attention_ps
    );
    assert_eq!(
        c.layer_ps, c.fetch_ps,
        "overlap model must report the bottleneck"
    );
}

#[test]
fn compute_bound_regime_at_short_cache() {
    // At 1K everything selected is resident: the layer is compute-bound
    // and the schedule collapses to serial LXE time.
    let model = ModelConfig::llama3_8b();
    let platform = PlatformSpec::vrex8();
    let w = Workload::frame(&model, 1_000, 1);
    let c = layer_costs(&platform, Method::ReSV, &w);
    assert_eq!(c.fetch_ps, 0, "1K fits the hot window");
    assert_eq!(c.layer_ps, c.dense_ps + c.attention_ps);
}
