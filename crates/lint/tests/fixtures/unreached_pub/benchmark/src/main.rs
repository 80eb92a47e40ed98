//! Fixture: the repo benchmark is read as a caller, never linted.

fn main() {
    let _ = vrex_core::called_from_benchmark();
}
