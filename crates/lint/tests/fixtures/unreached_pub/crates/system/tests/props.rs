//! Fixture: an integration test is not a caller.

#[test]
fn test_only_is_reached_from_tests() {
    assert_eq!(vrex_core::test_only(), 4);
}
