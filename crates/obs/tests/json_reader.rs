//! The JSON reader every artefact read goes through (capture manifests,
//! bench reports, flight dumps, ledger lines) answers malformed text with
//! an error, never a panic or a stack overflow.

use proptest::prelude::*;
use serde_json::Value;

/// Fragments that drive the parser into its nesting, string-escape and
/// number paths: brackets, quotes, both surrogate halves and a plain
/// escape, separators, a sign and an overflowing exponent.
const TOKENS: [&str; 10] = [
    "[", "{", "\"", "\\ud800", "\\udc00", "\\u0041", ":", ",", "-", "1e999",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn token_strings_parse_or_fail_without_panicking(
        picks in proptest::collection::vec(0usize..TOKENS.len(), 0..40),
    ) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        let _ = serde_json::from_str::<Value>(&text);
    }
}
