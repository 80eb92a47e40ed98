//! The output checker: what a run must get right to count as correct.
//!
//! Every repetition's reports are checked against the invariants the
//! simulator promises (session conservation, tier-byte conservation),
//! digested so repetitions and queue kinds can be compared without
//! keeping whole reports alive (which would inflate the very
//! `peak_rss_mb` being measured), and — for the seeds pinned in
//! `expected.json` — the simulated outputs must match bit for bit.

use vrex_system::serve::SessionOutcome;
use vrex_system::{ServeReport, ShardedServeReport};

use crate::json::{self, Value};

/// Checks attempted and failed so far, with one line per failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` is only rendered on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // A systematically broken run fails every repetition the
            // same way; the first few lines say it all.
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// Invariants of one single-device serve report.
pub fn check_serve_report(checks: &mut Checks, label: &str, r: &ServeReport, offered: usize) {
    checks.check(
        r.offered == offered
            && r.admitted + r.rejected == r.offered
            && r.sessions.len() == r.offered,
        || {
            format!(
                "{label}: sessions not conserved: offered {} (want {offered}), admitted {} + \
                 rejected {}, {} session reports",
                r.offered,
                r.admitted,
                r.rejected,
                r.sessions.len()
            )
        },
    );
    checks.check(r.real_time_sessions <= r.admitted, || {
        format!(
            "{label}: {} real-time sessions out of {} admitted",
            r.real_time_sessions, r.admitted
        )
    });
    let Some(t) = &r.tiering else { return };
    let c = &r.counters;
    let spilled_reports = r.sessions.iter().filter(|s| s.spilled).count();
    // Bytes only come back up after going down; every batch member is
    // a tier hit or a tier miss; a cluster-granular restore is exactly
    // its speculated plus its demand-fetched bytes; nothing spilled
    // means nothing restored.
    let cluster_bytes = c.spec_restore_bytes + c.demand_restore_bytes;
    checks.check(
        t.promoted_bytes <= t.spilled_bytes
            && t.tier_hit_steps + t.tier_miss_steps == c.batch_members
            && (cluster_bytes == 0 || cluster_bytes == t.restored_bytes)
            && (t.spilled_bytes > 0 || (t.restored_bytes == 0 && t.tier_miss_steps == 0))
            && t.spilled_sessions == spilled_reports
            && r.sessions
                .iter()
                .all(|s| !(s.spilled && s.outcome == SessionOutcome::Rejected)),
        || format!("{label}: tier bytes not conserved: {t:?} against {c:?}"),
    );
}

/// Invariants of one sharded report: each device's, plus placement
/// conservation (every offered session placed exactly once).
pub fn check_sharded_report(
    checks: &mut Checks,
    label: &str,
    r: &ShardedServeReport,
    offered: usize,
) {
    let mut placed = vec![0usize; r.devices.len()];
    for &(_, device) in &r.placements {
        placed[device] += 1;
    }
    checks.check(
        r.placements.len() == offered && r.offered() == offered,
        || {
            format!(
                "{label}: {} placements and {} offered for a fleet of {offered}",
                r.placements.len(),
                r.offered()
            )
        },
    );
    for (d, report) in r.devices.iter().enumerate() {
        check_serve_report(checks, &format!("{label} device {d}"), report, placed[d]);
    }
}

/// A 64-bit mix over the words fed to it. Not cryptographic; it only
/// has to tell two reports apart.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }

    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        xs.iter().for_each(|&x| self.float(x));
    }

    pub fn finish(self) -> u64 {
        self.0
    }

    /// Every outcome field of a serve report — the same set report
    /// equality compares, so `counters` stay out.
    pub fn serve_report(&mut self, r: &ServeReport) {
        for n in [
            r.offered,
            r.admitted,
            r.queued,
            r.rejected,
            r.real_time_sessions,
        ] {
            self.word(n as u64);
        }
        self.floats(&[
            r.frame_lag_p50_s,
            r.frame_lag_p99_s,
            r.ttft_p50_s,
            r.ttft_p99_s,
            r.tpot_p50_s,
            r.tpot_p99_s,
            r.makespan_s,
        ]);
        if let Some(t) = &r.tiering {
            for n in [
                t.spilled_sessions as u64,
                t.spilled_bytes,
                t.promoted_bytes,
                t.restored_bytes,
                t.tier_hit_steps,
                t.tier_miss_steps,
            ] {
                self.word(n);
            }
            self.floats(&[t.hidden_s, t.exposed_s]);
        }
        for s in &r.sessions {
            for n in [
                s.id,
                s.outcome as usize,
                s.frames_offered,
                s.max_queue_depth,
                s.final_cache_tokens,
                usize::from(s.real_time),
                usize::from(s.spilled),
            ] {
                self.word(n as u64);
            }
            self.floats(&[
                s.waited_s,
                s.mean_frame_lag_s,
                s.max_frame_lag_s,
                s.tier_exposed_s,
            ]);
            self.floats(&s.frame_lags_s);
            self.floats(&s.ttft_s);
            self.floats(&s.tpot_s);
        }
    }

    pub fn sharded_report(&mut self, r: &ShardedServeReport) {
        r.devices.iter().for_each(|d| self.serve_report(d));
        for &(id, device) in &r.placements {
            self.word(id as u64);
            self.word(device as u64);
        }
        let i = &r.interconnect;
        for n in [
            i.migrations as u64,
            i.migrated_bytes,
            i.busy_ps,
            i.makespan_ps,
        ] {
            self.word(n);
        }
    }
}

/// The pinned simulated outputs: a flat object of
/// `"<scale>.<seed>.<workload>.<metric>": value`.
#[derive(Debug)]
pub struct Expected(Vec<(String, Value)>);

impl Expected {
    pub fn parse(text: &str) -> Result<Self, String> {
        match json::parse(text)? {
            Value::Obj(members) => Ok(Expected(members)),
            _ => Err("expected.json must be one flat object".into()),
        }
    }

    pub fn key(scale: &str, seed: u64, workload: &str, metric: &str) -> String {
        format!("{scale}.{seed}.{workload}.{metric}")
    }

    pub fn get(&self, key: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_f64())
    }

    /// Replaces every pin under `prefix` with `values` and renders the
    /// file, keys sorted.
    pub fn updated(mut self, prefix: &str, values: &[(String, f64)]) -> String {
        self.0.retain(|(k, _)| !k.starts_with(prefix));
        self.0
            .extend(values.iter().map(|(k, v)| (k.clone(), Value::Num(*v))));
        self.0.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Obj(self.0).render_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        c.check(true, || unreachable!("a passing check renders nothing"));
        c.check(false, || "broken".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.failures, ["broken"]);
    }

    #[test]
    fn digest_tells_values_and_order_apart() {
        let d = |xs: &[f64]| {
            let mut d = Digest::default();
            d.floats(xs);
            d.finish()
        };
        assert_eq!(d(&[1.0, 2.0]), d(&[1.0, 2.0]));
        assert_ne!(d(&[1.0, 2.0]), d(&[2.0, 1.0]));
        assert_ne!(d(&[0.0]), d(&[-0.0]));
        assert_ne!(d(&[]), d(&[0.0]));
    }

    #[test]
    fn expected_pins_round_trip_and_update_by_prefix() {
        let e = Expected::parse("{\"full.11.a.x\": 0.1, \"smoke.11.a.x\": 2}").unwrap();
        assert_eq!(e.get("full.11.a.x"), Some(0.1));
        assert_eq!(e.get("full.12.a.x"), None);
        let text = e.updated("full.11.", &[("full.11.a.y".into(), 1.0 / 3.0)]);
        let e = Expected::parse(&text).unwrap();
        assert_eq!(e.get("full.11.a.x"), None);
        assert_eq!(e.get("full.11.a.y"), Some(1.0 / 3.0));
        assert_eq!(e.get("smoke.11.a.x"), Some(2.0));
    }
}
