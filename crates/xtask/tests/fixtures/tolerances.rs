//! Fixture: tolerance audit — two named f64 tolerances (budgeted), a
//! const built from one (clean), a bare small literal (finding), its
//! marked twin and decoys: zero, a large literal, an integer and a small
//! literal inside a string or a test module (clean).

pub const NAMED: f64 = 1e-9;

pub(crate) const ALSO_NAMED: f64 = 2.5e-12;

const DERIVED: f64 = 1e-9 * 4.0;

pub fn bare(x: f64) -> bool {
    x.abs() < 1e-10
}

pub fn marked(x: f64) -> bool {
    // float: tolerance — fixture reason
    x.abs() < 1e-10
}

pub fn decoys(x: f64) -> bool {
    let text = "1e-10";
    x > 0.0 && x < 0.5 && text.len() > 1 && x < 2e-6
}

#[cfg(test)]
mod tests {
    fn tolerant(x: f64) -> bool {
        x < 1e-12
    }
}
