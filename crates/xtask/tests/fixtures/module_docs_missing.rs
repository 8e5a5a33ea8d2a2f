// A plain comment is not a module doc; this file counts against the
// missing-module-docs lint.

pub fn lonely() {}
