//! Design-choice sensitivity sweep for ReSV's hyper-parameters
//! (ARCHITECTURE.md, "Figure/table → binary map"): `N_hp` (hash-bit
//! width), `Th_hd` (Hamming clustering threshold), and `Th_r-wics`
//! (WiCSum mass threshold). For each setting the functional model measures the
//! retrieval ratio, attention recall, and cluster occupancy —
//! quantifying the trade-offs behind the paper's chosen
//! `N_hp = 32, Th_hd = 7, Th_wics = 0.3`.

use vrex_bench::par::par_map;
use vrex_bench::report::{banner, f, Table};
use vrex_core::resv::{ResvConfig, ResvPolicy};
use vrex_model::{ModelConfig, RunStats, StreamingVideoLlm, VideoStream};
use vrex_workload::CoinTask;

fn measure(cfg: &ModelConfig, resv: ResvConfig) -> (f64, f64, f64) {
    let mut llm = StreamingVideoLlm::new(cfg.clone(), 42);
    let mut policy = ResvPolicy::new(cfg, resv);
    let mut stats = RunStats::new(cfg, true);
    let mut video =
        VideoStream::new(CoinTask::Step.video_config(cfg.tokens_per_frame, cfg.hidden_dim, 7));
    for _ in 0..14 {
        let frame = video.next_frame();
        llm.process_frame(&frame, &mut policy, &mut stats);
    }
    (
        stats.overall_ratio() * 100.0,
        stats.mean_recall(),
        policy.mean_tokens_per_cluster(),
    )
}

fn main() {
    let cfg = ModelConfig::small();
    let base = ResvConfig::paper_defaults();

    banner("ReSV sweep: hash-bit width N_hp (Th_hd scaled proportionally)");
    let mut t = Table::new(["N_hp", "Th_hd", "ratio %", "recall", "tokens/cluster"]);
    let widths = [8usize, 16, 32, 64];
    for (n_hp, (th_hd, (ratio, recall, occ))) in widths.iter().zip(par_map(&widths, |&n_hp| {
        let th_hd = ((7.0 / 32.0) * n_hp as f64).round() as u32;
        (
            th_hd,
            measure(
                &cfg,
                ResvConfig {
                    n_hyperplanes: n_hp,
                    hamming_threshold: th_hd.max(1),
                    ..base
                },
            ),
        )
    })) {
        t.row([
            n_hp.to_string(),
            th_hd.to_string(),
            f(ratio, 1),
            f(recall, 3),
            f(occ, 1),
        ]);
    }
    t.print();
    println!("Wider signatures cluster more precisely (higher recall per ratio) at\nlinear hash-compute cost — 32 bits is the knee the paper picks.");

    banner("ReSV sweep: Hamming threshold Th_hd @ N_hp = 32");
    let mut t = Table::new(["Th_hd", "ratio %", "recall", "tokens/cluster"]);
    let thresholds = [1u32, 3, 5, 7, 9, 13];
    for (th, (ratio, recall, occ)) in thresholds.iter().zip(par_map(&thresholds, |&th| {
        measure(
            &cfg,
            ResvConfig {
                hamming_threshold: th,
                ..base
            },
        )
    })) {
        t.row([th.to_string(), f(ratio, 1), f(recall, 3), f(occ, 1)]);
    }
    t.print();
    println!("Loose thresholds merge dissimilar tokens: occupancy rises but cluster\nrepresentatives blur, dragging selection quality.");

    banner("ReSV sweep: WiCSum threshold Th_r-wics");
    let mut t = Table::new(["Th_wics", "ratio %", "recall", "recall/ratio"]);
    let wics = [0.05f32, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9];
    for (th, (ratio, recall, _)) in wics.iter().zip(par_map(&wics, |&th| {
        measure(
            &cfg,
            ResvConfig {
                th_wics: th,
                ..base
            },
        )
    })) {
        t.row([
            f(*th as f64, 2),
            f(ratio, 1),
            f(recall, 3),
            f(recall / (ratio / 100.0), 2),
        ]);
    }
    t.print();
    println!("Th_wics is the accuracy/traffic dial: the paper tunes 0.3 to match\nbaseline accuracy at minimum fetched volume.");

    banner("ReSV sweep: clustering on/off (cross-check)");
    let mut t = Table::new(["clustering", "ratio %", "recall"]);
    let modes = [true, false];
    for (clustering, (ratio, recall, _)) in modes.iter().zip(par_map(&modes, |&clustering| {
        measure(
            &cfg,
            ResvConfig {
                clustering_enabled: clustering,
                ..base
            },
        )
    })) {
        t.row([clustering.to_string(), f(ratio, 1), f(recall, 3)]);
    }
    t.print();
    println!("Selection always runs the early-exit bucket sort; vrex-core's\nproptests pin it bit-exact against the full-sort WiCSum reference.");
}
