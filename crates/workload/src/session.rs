//! Streaming-session event generation.
//!
//! A streaming video LLM session interleaves continuously arriving
//! frames with multi-turn user queries. The paper's latency evaluation
//! models "the average working scenario on the COIN benchmark": 26
//! frames per interaction, 25 question tokens, 39 answer tokens.

use rand::rngs::StdRng;
use rand::Rng;
use vrex_tensor::rng::seeded_rng;

/// One event of a streaming session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEvent {
    /// A video frame arrives (processed by iterative prefill).
    Frame,
    /// The user asks a question of `tokens` tokens (prefill).
    Question {
        /// Question length in tokens.
        tokens: usize,
    },
    /// The model answers with `tokens` tokens (generation).
    Answer {
        /// Answer length in tokens.
        tokens: usize,
    },
}

/// The paper's average COIN interaction scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoinScenario {
    /// Frames processed per interaction.
    pub frames_per_query: usize,
    /// Question length (tokens).
    pub question_tokens: usize,
    /// Answer length (tokens).
    pub answer_tokens: usize,
}

impl CoinScenario {
    /// 26 frames, 25 question tokens, 39 answer tokens (paper §III-A).
    pub fn paper_average() -> Self {
        Self {
            frames_per_query: 26,
            question_tokens: 25,
            answer_tokens: 39,
        }
    }

    /// Events of one full interaction (frames, question, answer).
    pub fn interaction(&self) -> Vec<SessionEvent> {
        let mut events = vec![SessionEvent::Frame; self.frames_per_query];
        events.push(SessionEvent::Question {
            tokens: self.question_tokens,
        });
        events.push(SessionEvent::Answer {
            tokens: self.answer_tokens,
        });
        events
    }
}

/// Randomised multi-turn session generator (for functional accuracy
/// runs, which want variety rather than the fixed average case).
#[derive(Debug)]
pub struct SessionGenerator {
    rng: StdRng,
    mean_frames: usize,
    question_tokens: usize,
    answer_tokens: usize,
}

impl SessionGenerator {
    /// Creates a generator around the paper-average scenario.
    pub fn new(seed: u64) -> Self {
        Self::with_scenario(seed, CoinScenario::paper_average())
    }

    /// Creates a generator around an explicit scenario (mean frame and
    /// token counts).
    pub fn with_scenario(seed: u64, scenario: CoinScenario) -> Self {
        Self {
            rng: seeded_rng(seed),
            mean_frames: scenario.frames_per_query,
            question_tokens: scenario.question_tokens,
            answer_tokens: scenario.answer_tokens,
        }
    }

    /// Uniform draw from `mean ± round(mean * num / den)`.
    ///
    /// The window is built from a single rounded half-width so it is
    /// symmetric around `mean` for *every* mean — flooring both bounds
    /// independently (the previous scheme) skewed the window low
    /// whenever `mean` was not a multiple of `den`.
    fn centred_jitter(&mut self, mean: usize, num: usize, den: usize) -> usize {
        let half = half_width(mean, num, den);
        self.rng.gen_range(mean.saturating_sub(half)..=mean + half)
    }

    /// Most events one interaction can hold: the longest frame run the
    /// ±50% jitter allows, plus the question and the answer.
    fn max_turn_events(&self) -> usize {
        self.mean_frames + half_width(self.mean_frames, 1, 2) + 2
    }

    /// Generates `turns` interactions with ±50% jitter on frame counts
    /// and ±20% on token counts, each window centred on its mean.
    ///
    /// The event vector is allocated once, for the longest session the
    /// jitter allows, and never grows. A vector grown push by push is
    /// reallocated inside the allocator arena its first block came from,
    /// and on a thread that frees blocks other threads allocated (the
    /// caller of a sharded serve drops the reports its workers built)
    /// that first block can belong to a worker's arena: a whole fleet's
    /// plans then followed it there, and the process's peak resident
    /// size varied with thread timing.
    pub fn session(&mut self, turns: usize) -> Vec<SessionEvent> {
        let mut events = Vec::with_capacity(turns * self.max_turn_events());
        for _ in 0..turns {
            let frames = self.centred_jitter(self.mean_frames, 1, 2);
            for _ in 0..frames {
                events.push(SessionEvent::Frame);
            }
            events.push(SessionEvent::Question {
                tokens: self.centred_jitter(self.question_tokens, 1, 5),
            });
            events.push(SessionEvent::Answer {
                tokens: self.centred_jitter(self.answer_tokens, 1, 5),
            });
        }
        events
    }

    /// Generates random question token ids (hashed into a vocabulary by
    /// the model's embedding).
    pub fn question_ids(&mut self, tokens: usize) -> Vec<usize> {
        (0..tokens)
            .map(|_| self.rng.gen_range(0..100_000))
            .collect()
    }
}

/// Half-width `round(mean * num / den)` of a jitter window centred on
/// `mean`.
fn half_width(mean: usize, num: usize, den: usize) -> usize {
    (mean * num + den / 2) / den
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_average_matches_section3() {
        let s = CoinScenario::paper_average();
        assert_eq!(s.frames_per_query, 26);
        assert_eq!(s.question_tokens, 25);
        assert_eq!(s.answer_tokens, 39);
        let ev = s.interaction();
        assert_eq!(ev.len(), 28);
        assert_eq!(ev.iter().filter(|e| **e == SessionEvent::Frame).count(), 26);
    }

    #[test]
    fn generator_is_deterministic() {
        let a = SessionGenerator::new(5).session(3);
        let b = SessionGenerator::new(5).session(3);
        assert_eq!(a, b);
    }

    #[test]
    fn sessions_have_expected_structure() {
        let events = SessionGenerator::new(7).session(4);
        let questions = events
            .iter()
            .filter(|e| matches!(e, SessionEvent::Question { .. }))
            .count();
        let answers = events
            .iter()
            .filter(|e| matches!(e, SessionEvent::Answer { .. }))
            .count();
        assert_eq!(questions, 4);
        assert_eq!(answers, 4);
        // Each turn ends Question -> Answer.
        for w in events.windows(2) {
            if matches!(w[0], SessionEvent::Question { .. }) {
                assert!(matches!(w[1], SessionEvent::Answer { .. }));
            }
        }
    }

    #[test]
    fn jitter_windows_are_centred_on_the_mean() {
        // 7 and 39 are not multiples of 5, the case the old
        // floor-both-bounds window skewed low (e.g. tokens*4/5 and
        // tokens*6/5 for 39 gave [31, 46], mean 38.5).
        let scenario = CoinScenario {
            frames_per_query: 7,
            question_tokens: 7,
            answer_tokens: 39,
        };
        let mut g = SessionGenerator::with_scenario(11, scenario);
        let turns = 4_000;
        let events = g.session(turns);
        let mut frames = 0usize;
        let mut q_sum = 0usize;
        let mut a_sum = 0usize;
        for e in &events {
            match e {
                SessionEvent::Frame => frames += 1,
                SessionEvent::Question { tokens } => q_sum += tokens,
                SessionEvent::Answer { tokens } => a_sum += tokens,
            }
        }
        let mean = |sum: usize| sum as f64 / turns as f64;
        assert!(
            (mean(frames) - 7.0).abs() < 0.1,
            "frame mean {} not centred on 7",
            mean(frames)
        );
        assert!(
            (mean(q_sum) - 7.0).abs() < 0.1,
            "question mean {} not centred on 7",
            mean(q_sum)
        );
        assert!(
            (mean(a_sum) - 39.0).abs() < 0.25,
            "answer mean {} not centred on 39",
            mean(a_sum)
        );
    }

    /// A session is one allocation: the longest frame draws still fit
    /// the up-front reservation (a push past it would have regrown the
    /// vector), and the bound is tight — some session reaches it.
    #[test]
    fn sessions_fit_their_up_front_allocation() {
        for frames_per_query in [1, 7, 26] {
            let scenario = CoinScenario {
                frames_per_query,
                ..CoinScenario::paper_average()
            };
            let mut g = SessionGenerator::with_scenario(3, scenario);
            let per_turn = g.max_turn_events();
            let mut longest = 0;
            for turns in [1, 1, 2, 3] {
                for _ in 0..200 {
                    let events = g.session(turns);
                    assert_eq!(events.capacity(), turns * per_turn);
                    if turns == 1 {
                        longest = longest.max(events.len());
                    }
                }
            }
            assert_eq!(longest, per_turn, "{frames_per_query} frames per query");
        }
    }

    #[test]
    fn question_ids_in_range() {
        let ids = SessionGenerator::new(9).question_ids(25);
        assert_eq!(ids.len(), 25);
        assert!(ids.iter().all(|&i| i < 100_000));
    }
}
