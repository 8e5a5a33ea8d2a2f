//! Fixture: a `VERBS` table for `stats::verb_table` — three verbs, the
//! last spread over several lines, holding 2 + 0 + 4 options.

#[rustfmt::skip]
const VERBS: &[(&str, Verb, &[&str])] = &[
    ("first", first, &["data", "out"]),
    ("bare", bare, &[]),
    ("wide", wide, &[
        "index", "k",
        "range", "drain-stdin",
    ]),
];

const NOT_VERBS: &[&str] = &["ignored"];
