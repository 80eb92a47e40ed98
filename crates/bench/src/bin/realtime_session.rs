//! Transient real-time behaviour: queue depth and frame lag over a
//! live session (the user-visible meaning of Fig. 13's "real-time
//! processing" line), served as a one-session fleet.

use vrex_bench::report::{banner, f, Table};
use vrex_hwsim::seconds_to_ps;
use vrex_model::ModelConfig;
use vrex_system::{Method, PlatformSpec, Serve, ServeConfig, StepPriceCache, SystemModel};
use vrex_workload::traffic::{SessionPlan, SlicePlans};
use vrex_workload::SessionEvent;

fn main() {
    let model = ModelConfig::llama3_8b();
    let systems = [
        SystemModel::new(PlatformSpec::agx_orin(), Method::FlexGen),
        SystemModel::new(PlatformSpec::agx_orin(), Method::ReKV),
        SystemModel::new(PlatformSpec::vrex8(), Method::ReSV),
    ];
    // 60 s of a 2 FPS camera: one session, no contention.
    let plan = [SessionPlan {
        id: 0,
        arrival_ps: 0,
        events: vec![SessionEvent::Frame; 120],
    }];
    let session_end_ps = seconds_to_ps(60.0);

    banner("Live session: 2 FPS camera, 60 s, growing cache");
    let mut t = Table::new([
        "System",
        "Start cache",
        "Processed/offered",
        "Max queue",
        "Mean lag (s)",
        "Max lag (s)",
        "Real-time?",
    ]);
    for sys in &systems {
        for start in [1_000usize, 20_000, 40_000] {
            let cfg = ServeConfig::real_time(start);
            let mut prices = StepPriceCache::new(sys, &model);
            let r = Serve::new(&mut prices, &cfg).run(&mut SlicePlans::new(&plan));
            assert_eq!(r.admitted, 1);
            let s = &r.sessions[0];
            let interval_ps = seconds_to_ps(1.0 / cfg.fps);
            // Frame i arrives at i · interval; it counts when it
            // completes within the session.
            let processed = (0u64..)
                .zip(&s.frame_lags_s)
                .filter(|&(i, &lag)| i * interval_ps + seconds_to_ps(lag) <= session_end_ps)
                .count();
            t.row([
                sys.label(),
                format!("{}K", start / 1000),
                format!("{}/{}", processed, s.frames_offered),
                s.max_queue_depth.to_string(),
                f(s.mean_frame_lag_s, 2),
                f(s.max_frame_lag_s, 2),
                if s.real_time { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    t.print();
    println!(
        "\nGPU baselines fall behind as the cache grows — the queue (and the \
         user-visible narration lag) diverges; V-Rex8 stays bounded across the \
         sweep (paper: 3.9-8.3 FPS sustained)."
    );
}
