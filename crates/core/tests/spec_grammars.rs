//! The two spec grammars a user types, `--faults` ([`FaultSpec`]) and
//! `--slo` ([`SloSpec`]), read untrusted text: any string parses or is
//! refused without a panic, and every spec either grammar accepts
//! renders to a form that parses back to the same spec.

use htims_core::fault::FaultSpec;
use ims_obs::SloSpec;
use proptest::prelude::*;

/// Fragments that drive both grammars into their clause, rate and
/// duration paths: the keys, the separators, units with and without a
/// number, a rate, and the sign, overflow and NaN cases.
const TOKENS: [&str; 14] = [
    "p99=",
    "completeness=",
    "source.stall=",
    "@",
    ",",
    "=",
    "2.5ms",
    "500us",
    "µs",
    "1e999",
    "-1",
    "NaN",
    "0.5",
    "ns",
];

/// Parses `text` with both grammars; an accepted spec must render and
/// parse back to itself.
fn parses_or_refuses(text: &str) -> Result<(), TestCaseError> {
    if let Ok(spec) = SloSpec::parse(text) {
        let rendered = spec.to_string();
        prop_assert_eq!(
            SloSpec::parse(&rendered),
            Ok(spec.clone()),
            "slo `{}` rendered as `{}`",
            text,
            rendered
        );
    }
    if let Ok(spec) = FaultSpec::parse(text) {
        let rendered = spec.to_string();
        prop_assert_eq!(
            FaultSpec::parse(&rendered),
            Ok(spec.clone()),
            "faults `{}` rendered as `{}`",
            text,
            rendered
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn token_strings_parse_or_are_refused(
        picks in proptest::collection::vec(0usize..TOKENS.len(), 0..12),
    ) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        parses_or_refuses(&text)?;
    }

    #[test]
    fn arbitrary_strings_parse_or_are_refused(
        bytes in proptest::collection::vec(any::<u8>(), 0..48),
        chars in proptest::collection::vec(any::<u32>(), 0..24),
    ) {
        parses_or_refuses(&String::from_utf8_lossy(&bytes))?;
        let text: String = chars
            .iter()
            .filter_map(|&c| char::from_u32(c % 0x11_0000))
            .collect();
        parses_or_refuses(&text)?;
    }
}

#[test]
fn the_token_strings_reach_accepted_specs() {
    // The token fuzz is only worth its cases if it can build specs both
    // grammars accept.
    for text in [
        "p99=2.5ms",
        "p99=500us,completeness=0.5",
        "source.stall=500us@0.5",
    ] {
        assert!(
            SloSpec::parse(text).is_ok() || FaultSpec::parse(text).is_ok(),
            "{text}"
        );
    }
}
