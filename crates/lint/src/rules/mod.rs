//! The rule registry. [`run_all`] builds one [`Context`] — parsed
//! sources, scanned manifests, workspace index, call graph — and hands
//! it to every rule; each rule is a pure function of that context,
//! diagnostics out.

use crate::context::Context;
use crate::index::Index;
use hacc_telem::diag::{normalize, Diagnostic};
use crate::Workspace;

pub mod c1;
pub mod d1;
pub mod e1;
pub mod f1;
pub mod h1;
pub mod k1;
pub mod p1;
pub mod v1;

/// Run every rule over the workspace; findings come back sorted and
/// deduplicated (byte-stable output across runs and platforms).
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let index = Index::build(ws);
    let cx = Context::new(ws, &index);
    let mut out = Vec::new();
    out.extend(d1::run(&cx));
    out.extend(c1::run(&cx));
    out.extend(h1::run(&cx));
    out.extend(f1::run(&cx));
    out.extend(k1::run(&cx));
    out.extend(p1::run(&cx));
    out.extend(e1::run(&cx));
    out.extend(v1::run(&cx));
    normalize(out)
}
