//! Property tests for the JSON module, which parses untrusted `xp serve` requests:
//! the parser returns `Ok` or `Err` on any input and never panics, and the writer's
//! string literals parse back to exactly the string that was written.

use proptest::prelude::*;
use repro_bench::json::{json_string, Json};

/// Bytes that make up JSON syntax, so random documents get past the first byte
/// and reach the nested, escaped and numeric paths of the parser.
const ALPHABET: &[u8] = b"{}[]:,\"\\/ \t\n0123456789-+.eEtrufalsnbu\xc3\xa9\xf0\x9f\x98\x80";

/// A character from one of four classes: control, ASCII, other BMP (including
/// the characters around the surrogate gap), or beyond the BMP.
fn any_char() -> impl Strategy<Value = char> {
    (0..4u32, any::<u32>()).prop_map(|(class, bits)| {
        let scalar = match class {
            0 => bits % 0x20,
            1 => 0x20 + bits % 0x60,
            2 => 0x80 + bits % (0x1_0000 - 0x80),
            _ => 0x1_0000 + bits % (0x11_0000 - 0x1_0000),
        };
        char::from_u32(scalar).unwrap_or('\u{fffd}')
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn parse_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parse_never_panics_on_json_shaped_bytes(
        picks in prop::collection::vec(any::<usize>(), 0..256)
    ) {
        let bytes: Vec<u8> = picks.iter().map(|i| ALPHABET[i % ALPHABET.len()]).collect();
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn written_strings_parse_back_exactly(chars in prop::collection::vec(any_char(), 0..64)) {
        let s: String = chars.into_iter().collect();
        prop_assert_eq!(Json::parse(&json_string(&s)), Ok(Json::Str(s)));
    }
}
