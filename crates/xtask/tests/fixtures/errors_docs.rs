//! Fixture: errors-docs audit — `undocumented` (finding), `documented`
//! and `documented_behind_a_marker` (clean: a `//` marker between the
//! docs and the fn hides neither), `nested_result` (finding: Result
//! buried in a tuple), private fn (clean).

/// Does a thing.
pub fn undocumented() -> Result<(), String> {
    Ok(())
}

/// Does a thing.
///
/// # Errors
///
/// Never, in practice.
pub fn documented() -> Result<(), String> {
    Ok(())
}

/// Does a thing.
///
/// # Errors
///
/// Never, in practice.
// lint: allow(unbudgeted): fixture marker between the docs and the fn.
pub fn documented_behind_a_marker() -> Result<(), String> {
    Ok(())
}

/// Returns a value and a fallible channel.
pub fn nested_result() -> (u32, Result<(), String>) {
    (1, Ok(()))
}

fn private_fallible() -> Result<(), String> {
    Ok(())
}

pub fn consume() {
    let _ = private_fallible();
}
