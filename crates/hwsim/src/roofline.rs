//! Roofline-analysis helpers (Fig. 18).
//!
//! The paper's Fig. 18 places three edge systems on a roofline at the
//! frame-processing workload's operational intensity (15.2 FLOP/byte):
//! AGX+FlexGen reaches 6.6% of attainable, AGX+ReKV ~15%, V-Rex8 71.5%.
//! These helpers compute attainable throughput and achieved fractions
//! from measured latencies.

/// A machine roof: peak compute and memory bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roof {
    /// Peak throughput (FLOP/s).
    pub peak_flops: f64,
    /// Memory bandwidth (bytes/s).
    pub mem_bytes_per_s: f64,
}

impl Roof {
    /// Attainable FLOP/s at operational intensity `oi` (FLOP/byte).
    pub fn attainable(&self, oi: f64) -> f64 {
        (oi * self.mem_bytes_per_s).min(self.peak_flops)
    }
}

/// One measured system point on the roofline plot.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// System label.
    pub name: String,
    /// Operational intensity of the workload (FLOP/byte).
    pub oi: f64,
    /// Achieved throughput (FLOP/s) = useful FLOPs / measured time.
    pub achieved_flops: f64,
    /// Fraction of the attainable roof achieved.
    pub fraction_of_attainable: f64,
}

impl RooflinePoint {
    /// Builds a point from measured work and latency.
    pub fn from_measurement(
        name: &str,
        roof: Roof,
        useful_flops: u64,
        total_bytes: u64,
        seconds: f64,
    ) -> Self {
        assert!(seconds > 0.0, "latency must be positive");
        let oi = useful_flops as f64 / total_bytes.max(1) as f64;
        let achieved = useful_flops as f64 / seconds;
        let attainable = roof.attainable(oi);
        Self {
            name: name.to_string(),
            oi,
            achieved_flops: achieved,
            fraction_of_attainable: achieved / attainable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attainable_below_and_above_ridge() {
        let roof = Roof {
            peak_flops: 54e12,
            mem_bytes_per_s: 204.8e9,
        };
        let ridge = roof.peak_flops / roof.mem_bytes_per_s;
        assert!((ridge - 263.7).abs() < 1.0);
        // Below ridge: bandwidth-limited.
        assert!((roof.attainable(15.2) - 15.2 * 204.8e9).abs() < 1.0);
        // Above ridge: compute-limited.
        assert_eq!(roof.attainable(1000.0), 54e12);
    }

    #[test]
    fn point_fraction_is_relative_to_attainable() {
        let roof = Roof {
            peak_flops: 54e12,
            mem_bytes_per_s: 204.8e9,
        };
        // Workload: OI 15.2, so attainable = 3.11 TFLOPS. A system
        // achieving 1.56 TFLOPS sits at 50%.
        let flops = 15_200_000_000u64; // 15.2 GFLOP
        let bytes = 1_000_000_000u64; // 1 GB
        let p = RooflinePoint::from_measurement("x", roof, flops, bytes, 15.2e9 / 1.556e12 / 2.0);
        assert!((p.oi - 15.2).abs() < 1e-9);
        assert!((p.fraction_of_attainable - 1.0).abs() < 0.02);
    }

    #[test]
    fn slower_system_scores_lower_fraction() {
        let roof = Roof {
            peak_flops: 54e12,
            mem_bytes_per_s: 204.8e9,
        };
        let fast = RooflinePoint::from_measurement("fast", roof, 1 << 40, 1 << 36, 1.0);
        let slow = RooflinePoint::from_measurement("slow", roof, 1 << 40, 1 << 36, 10.0);
        assert!((fast.fraction_of_attainable / slow.fraction_of_attainable - 10.0).abs() < 1e-6);
    }
}
