//! Property tests for the HTTP request reader: total over arbitrary
//! byte streams — every input either parses or yields a typed
//! [`HttpError`] with a definite 4xx/5xx status, never a panic — and
//! well-formed requests round-trip exactly.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_serve::http::read_request;
use proptest::prelude::*;

/// Statuses the parser is allowed to assign to malformed input.
const ERROR_STATUSES: [u16; 6] = [400, 413, 414, 431, 501, 505];

fn assert_total(bytes: &[u8]) {
    match read_request(&mut &bytes[..]) {
        Ok(_) => {}
        Err(error) => {
            let (code, reason) = error.status();
            assert!(
                ERROR_STATUSES.contains(&code),
                "unexpected status {code} for {bytes:?}"
            );
            assert!(!reason.is_empty());
            assert!(!error.to_string().is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512 })]

    /// Pure fuzz: raw bytes straight into the reader.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255u8, 0..1024)) {
        assert_total(&bytes);
    }

    /// HTTP-shaped fuzz: plausible request lines and headers assembled
    /// from fragments, so the deeper parsing stages get exercised too.
    #[test]
    fn http_shaped_garbage_never_panics(
        method in prop::sample::select(vec!["GET", "POST", "PUT", "get", "", "G\u{7f}T"]),
        target in prop::sample::select(vec!["/", "/v1/knn", "", "nope", "/\u{1f}", "//"]),
        version in prop::sample::select(vec!["HTTP/1.1", "HTTP/1.0", "HTTP/2", "HTCPCP/1.0", ""]),
        header in prop::sample::select(vec![
            "Content-Length: 5",
            "Content-Length: -1",
            "Content-Length: 99999999999999999999",
            "Content-Length: five",
            "NoColonHere",
            ": empty-name",
            "X-Bin: \u{0}\u{1}",
        ]),
        body in prop::collection::vec(0u8..=255u8, 0..64),
    ) {
        let mut bytes = format!("{method} {target} {version}\r\n{header}\r\n\r\n").into_bytes();
        bytes.extend_from_slice(&body);
        assert_total(&bytes);
    }

    /// Truncation at every prefix length of a valid request stays total.
    #[test]
    fn every_truncation_of_a_valid_request_is_total(cut in 0usize..=64) {
        let full = b"POST /v1/knn HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"k\":3}";
        let cut = cut.min(full.len());
        assert_total(&full[..cut]);
    }

    /// Well-formed POSTs round-trip: target, headers and body all
    /// survive parsing byte-for-byte.
    #[test]
    fn valid_posts_round_trip(
        segment in prop::collection::vec(97u8..=122u8, 1..12),
        body in prop::collection::vec(0u8..=255u8, 0..256),
    ) {
        let target = format!("/v1/{}", String::from_utf8(segment).unwrap());
        let mut bytes = format!(
            "POST {target} HTTP/1.1\r\nX-Trace: abc\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        bytes.extend_from_slice(&body);
        let request = read_request(&mut bytes.as_slice()).expect("valid request parses").expect("non-empty");
        prop_assert_eq!(request.target, target);
        prop_assert_eq!(request.header("x-trace"), Some("abc"));
        prop_assert_eq!(request.body, body);
    }
}
