//! Fixture: indexing audit — two unjustified sites (lines 6 and 20), two
//! justified (one by a marker that opens a longer comment run), and
//! slice-type / macro / string decoys that must not count.

pub fn unjustified(values: &[f64], i: usize) -> f64 {
    // The classic: raw index, no justification.
    values[i]
}

pub fn justified(values: &[f64]) -> f64 {
    // bounds: callers guarantee non-empty input
    values[0]
}

pub fn justified_by_a_comment_run(values: &[f64]) -> f64 {
    // bounds: callers guarantee two entries; the marker opens a run
    // whose last line, the one above the site, carries none.
    values[1]
}

pub fn second_unjustified(pairs: &[(usize, usize)]) -> usize {
    pairs[0].0
}

pub fn decoys(raw: &str) -> Vec<i64> {
    let slice: &[i64] = &[1, 2, 3];
    let from_macro = vec![slice.len() as i64];
    let _text = "indexed[0] inside a string";
    let _ = raw;
    from_macro
}
