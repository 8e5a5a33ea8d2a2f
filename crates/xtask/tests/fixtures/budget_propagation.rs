//! Fixture: budget-propagation audit — a bare `solve` (finding), a
//! budgeted `solve_budgeted` (clean), an annotated `knn` (budgeted), a
//! cancel-aware `run` (clean), an `Executor::run` over a `&Query` (clean:
//! the query carries its budget) beside one over a bare `&Histogram`
//! (finding), and a non-solver helper (ignored).

pub struct Budget;
pub struct CancelToken;
pub struct Histogram;
pub struct Query {
    pub budget: Budget,
}
pub struct Executor;
pub struct Bare;

pub fn solve(problem: &[f64]) -> f64 {
    problem.iter().sum()
}

pub fn solve_budgeted(problem: &[f64], budget: &Budget) -> f64 {
    let _ = budget;
    problem.iter().sum()
}

// lint: allow(unbudgeted): fixture-approved fast path
pub fn knn(problem: &[f64], k: usize) -> f64 {
    let _ = k;
    problem.iter().sum()
}

pub fn run(problem: &[f64], cancel: &CancelToken) -> f64 {
    let _ = cancel;
    problem.iter().sum()
}

impl Executor {
    pub fn run(&self, query: &Query) -> f64 {
        let _ = &query.budget;
        0.0
    }
}

impl Bare {
    pub fn run(&self, h: &Histogram) -> f64 {
        let _ = h;
        0.0
    }
}

pub fn helper(problem: &[f64]) -> f64 {
    problem.iter().sum()
}
