//! Fixture: `cargo xtask stats` counting rules. The non-test lines are
//! 1-27 (line 28 is the column-0 `#[cfg(test)]`); the `pub` item lines
//! are 5, 6, 9, 12 and 21.

pub mod nested;
pub use std::fmt;
pub(crate) use std::io;

pub const LIMIT: usize = 3;
pub(crate) const HIDDEN: usize = 4;

pub struct Counted {
    pub field: usize,
}
impl Counted {
    // An indented cfg(test) marks one item; it does not end the count.
    #[cfg(test)]
    pub(crate) fn probe(&self) -> usize {
        self.field
    }
    pub fn get(&self) -> usize {
        self.field
    }
}

/// pub fn in a doc comment is not an item line.
fn private() {}
#[cfg(test)]
mod tests {
    pub fn after_the_test_module() {}
}
