//! Fixture: regex-scanner failure modes. Every pattern below lives in a
//! raw string or a multi-line block comment, so the token engine must
//! report NOTHING for this file, where a line scanner would fabricate
//! findings from it.

pub fn raw_string_payload() -> &'static str {
    r#"
    fn looks_like_code() {
        values[i].unwrap();
        let map = HashMap::new();
        Err("stringly")
    }
    "#
}

/*
Multi-line block comment with the same bait:
    candidates[0].expect("x");
    std::time::Instant::now();
*/
pub fn after_the_comment() {}
