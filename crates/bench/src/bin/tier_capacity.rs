//! Tiered-memory serving sweep: does spilling cold KV down the
//! HBM → host-DRAM → SSD hierarchy beat rejecting sessions?
//!
//! `serve_capacity` rejects overflow sessions; here they are admitted
//! and the coldest streams' resident KV is spilled to host DRAM / SSD,
//! restored by demand fetch, speculative (InfiniGen-style) prefetch
//! that overlaps the wait window and the step's compute, or at
//! **hash-cluster** granularity with WiCSum-mass victim ranking. Axes:
//! fleet size × cache length × device-memory budget × admission policy.
//!
//! Usage: `tier_capacity [--smoke] [--overlap]` — `--smoke` runs the
//! headline unit only and asserts that tiering admits more real-time
//! streams than reject-only and that cluster-granular tiering restores
//! strictly fewer bytes with strictly less exposed time at no lower
//! capacity. `--overlap` adds a fifth policy row per unit,
//! tiered+prefetch under the resource-timeline execution model, and
//! asserts that at 32K on the headline unit it sustains at least the
//! serialized count. Without the flag the stdout is byte-identical to
//! the serialized-only sweep, so the pinned capacity rows never move.
//!
//! The grid, its serves and the gates are
//! [`vrex_system::capacity::TierGrid`] and its predicates; this bin
//! renders the rows and asserts the same predicates. The sweep's host
//! time is the repo benchmark's `capacity_sweep` workload.

use vrex_bench::report::{banner, f, Table};
use vrex_system::capacity::{
    best_tiering_unit, cluster_tiering_beats_flat, overlap_meets_serialized,
    tiering_beats_reject_only, TierGrid,
};

fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let overlap = std::env::args().any(|a| a == "--overlap");
    let grid = TierGrid::new(smoke, overlap);
    let results = grid.sweep();

    let headers = ["System", "Device budget", "Cache", "RT streams (reject)"].map(String::from);
    let tiered = grid.policies[1..]
        .iter()
        .map(|p| format!("RT ({})", p.label));
    let mut summary = Table::new(headers.into_iter().chain(tiered));

    for unit in &results {
        let u = &unit.unit;
        banner(&format!(
            "{} [{}] at {}K cache tokens",
            u.sys.label(),
            u.budget,
            u.cache / 1000
        ));
        let mut t = Table::new([
            "Policy",
            "Offered",
            "Admitted",
            "Rejected",
            "Real-time",
            "p99 lag (s)",
            "Spilled",
            "Restored GiB",
            "Exposed (s)",
            "Hidden (s)",
        ]);
        for (policy, rows) in grid.policies.iter().zip(&unit.policies) {
            for r in &rows.reports {
                let (spilled, restored, exposed, hidden) = match &r.tiering {
                    Some(tr) => (
                        tr.spilled_sessions.to_string(),
                        f(gib(tr.restored_bytes), 1),
                        f(tr.exposed_s, 2),
                        f(tr.hidden_s, 2),
                    ),
                    None => ("-".into(), "-".into(), "-".into(), "-".into()),
                };
                t.row([
                    policy.label.to_string(),
                    r.offered.to_string(),
                    r.admitted.to_string(),
                    r.rejected.to_string(),
                    format!("{}/{}", r.real_time_sessions, r.admitted),
                    f(r.frame_lag_p99_s, 3),
                    spilled,
                    restored,
                    exposed,
                    hidden,
                ]);
            }
        }
        t.print();
        let mut row = vec![
            u.sys.label(),
            u.budget.to_string(),
            format!("{}K", u.cache / 1000),
        ];
        row.extend(unit.policies.iter().map(|p| p.best_real_time.to_string()));
        summary.row(row);
        if smoke {
            assert!(
                cluster_tiering_beats_flat(&results),
                "cluster tiering gate broken"
            );
            let (cluster, flat) = (&unit.policies[3], &unit.policies[2]);
            println!(
                "OK: cluster-granular tiering restores {:.2} GiB vs {:.2} GiB flat \
                 ({:.2} s vs {:.2} s exposed) at {} real-time streams.",
                gib(cluster.restored_bytes),
                gib(flat.restored_bytes),
                cluster.exposed_s,
                flat.exposed_s,
                cluster.best_real_time
            );
        }
    }

    banner("Real-time stream capacity by admission policy");
    summary.print();
    let best = best_tiering_unit(&results).expect("the grid has units");
    let (u, best_gain) = (&best.unit, best.tiering_gain());
    println!(
        "\nBest tiering gain: {} [{}] at {}K: {} real-time streams tiered+prefetch vs {} reject-only",
        u.sys.label(),
        u.budget,
        u.cache / 1000,
        best.policies[2].best_real_time,
        best.policies[0].best_real_time
    );
    println!(
        "Rejecting a session that would not fit device memory wastes the rest \
         of the hierarchy; spilling the coldest stream's resident KV to host \
         DRAM (or the SSD on the edge box) admits it instead, and speculative \
         prefetch hides most of the restore behind the queue wait and the \
         step's layer-by-layer compute."
    );
    assert!(
        tiering_beats_reject_only(&results),
        "best tiering gain {best_gain} < 1"
    );
    println!(
        "OK: tiering admits {best_gain} more real-time stream(s) than \
         reject-only at equal device memory."
    );
    if overlap {
        assert!(
            overlap_meets_serialized(&results),
            "overlap trails serialized at 32K"
        );
        println!(
            "OK: resource-timeline overlap sustains at least the serialized \
             real-time capacity on the headline V-Rex48+ReSV configuration."
        );
    }
}
