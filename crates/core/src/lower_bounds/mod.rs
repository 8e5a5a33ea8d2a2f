//! Closed-form lower-bounding filter distances for the EMD.
//!
//! Both bounds here *underestimate* the exact EMD, which makes them
//! complete filters in GEMINI/KNOP multistep query processing (Section 2.1
//! of the paper). They complement — and chain with — the paper's
//! dimensionality reduction, which is implemented in `emd-reduction`.
//!
//! * [`LbIm`] — the *independent minimization* bound of Assent et al.
//!   (reference \[1\] of the paper), used as the `Red-IM` stage of the
//!   paper's Figure 10 filter pipeline and as the clustered index's keys.
//! * [`AnchorBound`] — weak-duality bound from distance-to-anchor
//!   potentials, lines of the crate's one line kernel; `O(#anchors)` per
//!   pair after per-object projection, the floor under the reduced stages.

mod dual;
mod im;

pub use dual::AnchorBound;
pub use im::LbIm;
