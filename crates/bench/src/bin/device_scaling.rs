//! Multi-device scaling sweep: how many total real-time streams does a
//! `DevicePool` of headline devices (V-Rex48 + ReSV, halved HBM,
//! 32K-token windows) sustain as devices are added, under each
//! `PlacementPolicy`? Arriving sessions are *placed* on a device
//! (admission becomes placement), and under the migrate policy
//! off-home placements copy their resident context KV across the
//! NVLink fabric as contended resource-timeline work. Capacity is the
//! most *summed* real-time streams any offered fleet achieved.
//!
//! Usage: `device_scaling [--smoke]` — `--smoke` runs the CI-sized
//! grid (device counts 1 and 2 only). Both modes assert that 2-device
//! capacity exceeds 1-device capacity under load-balanced and migrate
//! placement and is at least it under first-fit.
//!
//! The grid (fleets scale with and nest across pool sizes), its serves
//! and the gate are [`vrex_system::capacity::DeviceGrid`] and
//! [`vrex_system::capacity::two_devices_meet_one`]; this bin renders
//! the rows and asserts the same predicate. Host time is measured by
//! the repo benchmark's `pool_migrate` workload.

use vrex_bench::report::{banner, f, Table};
use vrex_system::capacity::{two_devices_meet_one, DeviceGrid, HEADLINE_CACHE_TOKENS};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let grid = DeviceGrid::new(smoke);

    let mode = if smoke { " (smoke)" } else { "" };
    banner(&format!("Device-scaling capacity sweep{mode}"));
    println!(
        "V-Rex48 + ReSV, half HBM, 32K windows, tiered+prefetch admission, \
         {HEADLINE_CACHE_TOKENS} initial cache tokens; fleets of {:?} \
         sessions per device\n",
        grid.fleets_per_device
    );

    let results = grid.sweep();
    let mut summary = Table::new([
        "Devices",
        "RT (first-fit)",
        "RT (load-balanced)",
        "RT (migrate)",
        "Migrations",
    ]);
    for unit in &results {
        banner(&format!(
            "{} device(s): V-Rex48 [half HBM, 32K window] pool",
            unit.devices
        ));
        let mut t = Table::new([
            "Policy",
            "Offered",
            "Admitted",
            "Real-time",
            "Migrations",
            "Migrated GiB",
            "Fabric busy (ms)",
        ]);
        for rows in &unit.policies {
            for r in &rows.reports {
                let fabric = r.interconnect;
                t.row([
                    rows.policy.label().to_string(),
                    r.offered().to_string(),
                    r.admitted().to_string(),
                    format!("{}/{}", r.real_time_sessions(), r.admitted()),
                    fabric.migrations.to_string(),
                    f(fabric.migrated_bytes as f64 / (1u64 << 30) as f64, 2),
                    f(fabric.busy_ps as f64 / 1e9, 2),
                ]);
            }
        }
        t.print();
        let cells = &unit.policies;
        summary.row([
            unit.devices.to_string(),
            cells[0].capacity.to_string(),
            cells[1].capacity.to_string(),
            cells[2].capacity.to_string(),
            cells[2].migrations.to_string(),
        ]);
    }

    banner("Total real-time stream capacity by device count");
    summary.print();
    println!(
        "\nAdmission becomes placement: each arriving session is routed to one \
         device of the pool, every device runs the single-device tiered \
         scheduler unchanged, and under the migrate policy off-home placements \
         copy their resident context KV across the NVLink fabric first."
    );
    assert!(
        two_devices_meet_one(&results),
        "2 devices trail 1 for some placement"
    );
    println!("OK: 2-device capacity >= 1-device capacity for every placement policy.");
}
