//! Fixture: another crate's non-test code is a caller.

fn main() {
    let m = vrex_core::Meters(vrex_core::called_cross_crate());
    println!("{m}");
}
