//! The five COIN benchmark task profiles (paper Table II).
//!
//! Each profile records the paper's measured VideoLLM-Online baseline
//! accuracy plus per-task retrieval ratios of the published methods
//! (used as reference columns in the Table II reproduction) and the
//! video statistics that shape the task's attention distributions.

use vrex_model::VideoStreamConfig;

/// One COIN task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoinTask {
    /// Step recognition.
    Step,
    /// Next-step prediction.
    Next,
    /// Task recognition.
    Task,
    /// Procedure recognition.
    Proc,
    /// Procedure+ (extended procedure understanding).
    ProcPlus,
}

/// All five tasks in Table II column order.
pub const COIN_TASKS: [CoinTask; 5] = [
    CoinTask::Step,
    CoinTask::Next,
    CoinTask::Task,
    CoinTask::Proc,
    CoinTask::ProcPlus,
];

/// Published per-task reference numbers (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskReference {
    /// VideoLLM-Online (vanilla) Top-1 accuracy.
    pub vanilla_top1: f64,
    /// ReSV Top-1 accuracy.
    pub resv_top1: f64,
    /// ReSV retrieval ratio (frame stage, %).
    pub resv_ratio_frame: f64,
    /// ReSV retrieval ratio (generation stage, %).
    pub resv_ratio_text: f64,
    /// ReKV retrieval ratio (frame stage, %).
    pub rekv_ratio_frame: f64,
    /// ReKV retrieval ratio (generation stage, %).
    pub rekv_ratio_text: f64,
}

impl CoinTask {
    /// Short column label as in Table II.
    pub fn label(&self) -> &'static str {
        match self {
            CoinTask::Step => "Step",
            CoinTask::Next => "Next",
            CoinTask::Task => "Task",
            CoinTask::Proc => "Proc.",
            CoinTask::ProcPlus => "Proc.+",
        }
    }

    /// Paper Table II reference values for this task.
    pub fn reference(&self) -> TaskReference {
        match self {
            CoinTask::Step => TaskReference {
                vanilla_top1: 49.0,
                resv_top1: 47.5,
                resv_ratio_frame: 32.4,
                resv_ratio_text: 2.8,
                rekv_ratio_frame: 56.7,
                rekv_ratio_text: 34.5,
            },
            CoinTask::Next => TaskReference {
                vanilla_top1: 62.1,
                resv_top1: 62.0,
                resv_ratio_frame: 34.3,
                resv_ratio_text: 2.4,
                rekv_ratio_frame: 59.7,
                rekv_ratio_text: 33.4,
            },
            CoinTask::Task => TaskReference {
                vanilla_top1: 51.6,
                resv_top1: 50.5,
                resv_ratio_frame: 36.1,
                resv_ratio_text: 2.9,
                rekv_ratio_frame: 62.5,
                rekv_ratio_text: 37.9,
            },
            CoinTask::Proc => TaskReference {
                vanilla_top1: 92.5,
                resv_top1: 92.2,
                resv_ratio_frame: 25.1,
                resv_ratio_text: 1.4,
                rekv_ratio_frame: 51.4,
                rekv_ratio_text: 13.6,
            },
            CoinTask::ProcPlus => TaskReference {
                vanilla_top1: 49.5,
                resv_top1: 48.2,
                resv_ratio_frame: 35.5,
                resv_ratio_text: 2.9,
                rekv_ratio_frame: 61.7,
                rekv_ratio_text: 36.7,
            },
        }
    }

    /// Video statistics for this task's streams. Tasks whose paper
    /// retrieval ratio is low (`Proc.`) have the most static video
    /// (long scenes, low noise ⇒ concentrated attention and heavy
    /// clustering); tasks with high ratios get busier video.
    pub fn video_config(
        &self,
        tokens_per_frame: usize,
        dim: usize,
        seed: u64,
    ) -> VideoStreamConfig {
        let (cut, drift, noise) = match self {
            CoinTask::Step => (0.012, 0.05, 0.20),
            CoinTask::Next => (0.015, 0.06, 0.22),
            CoinTask::Task => (0.020, 0.07, 0.25),
            CoinTask::Proc => (0.005, 0.03, 0.12),
            CoinTask::ProcPlus => (0.018, 0.06, 0.24),
        };
        VideoStreamConfig {
            tokens_per_frame,
            dim,
            scene_cut_prob: cut,
            drift_std: drift,
            noise_std: noise,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_tasks_with_distinct_labels() {
        let labels: std::collections::BTreeSet<_> = COIN_TASKS.iter().map(|t| t.label()).collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn resv_drop_is_marginal_in_reference_data() {
        // Paper: ReSV's average accuracy drop vs vanilla is ~0.8 points.
        let drop: f64 = COIN_TASKS
            .iter()
            .map(|t| {
                let r = t.reference();
                r.vanilla_top1 - r.resv_top1
            })
            .sum::<f64>()
            / 5.0;
        assert!((0.5..=1.1).contains(&drop), "mean drop {drop}");
    }

    #[test]
    fn resv_ratios_beat_rekv_everywhere() {
        for t in COIN_TASKS {
            let r = t.reference();
            assert!(r.resv_ratio_frame < r.rekv_ratio_frame);
            assert!(r.resv_ratio_text < r.rekv_ratio_text);
        }
    }

    #[test]
    fn proc_task_has_most_static_video() {
        let proc = CoinTask::Proc.video_config(8, 64, 1);
        for t in COIN_TASKS.iter().filter(|t| **t != CoinTask::Proc) {
            let other = t.video_config(8, 64, 1);
            assert!(proc.scene_cut_prob < other.scene_cut_prob);
            assert!(proc.noise_std < other.noise_std);
        }
    }

    #[test]
    fn vanilla_average_matches_paper() {
        // The five tasks' vanilla accuracy averages the paper's ~60.9.
        let sum: f64 = COIN_TASKS.iter().map(|t| t.reference().vanilla_top1).sum();
        let avg = sum / COIN_TASKS.len() as f64;
        assert!((avg - 60.94).abs() < 0.1, "avg {avg}");
    }
}
