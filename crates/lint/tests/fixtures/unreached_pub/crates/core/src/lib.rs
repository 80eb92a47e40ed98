//! Fixture: `unreached-pub` over a miniature workspace. Callers live in
//! `crates/bench/src/bin/fig.rs` and `benchmark/src/main.rs`; the test
//! references in `crates/system/tests/props.rs` and below do not count.

pub fn uncalled() -> u32 {
    1
}

pub fn called_cross_crate() -> u32 {
    2
}

pub fn called_from_benchmark() -> u32 {
    3
}

pub const fn test_only() -> u32 {
    4
}

pub const UNUSED_LIMIT: u32 = 5;

pub struct Meters(pub u32);

impl std::fmt::Display for Meters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} m", self.0)
    }
}

pub(crate) fn crate_only() -> u32 {
    6
}

// vrex-lint: allow(unreached-pub) — fixture: paper claim, becomes an F1 row
pub fn paper_claim() -> f64 {
    0.0167
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_only_is_four() {
        assert_eq!(test_only(), 4);
    }
}
