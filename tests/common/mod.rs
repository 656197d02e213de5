//! Golden snapshots shared by the integration tests: a file under
//! `tests/golden/` pins rendered output down to the formatted digit.
//! After an *intentional* output change, regenerate with
//! `UPDATE_GOLDEN=1` on the owning test (`make golden` does all of
//! them) and commit the snapshot with a note explaining what moved.

/// Compares `got` with the snapshot at `rel_path` (relative to the
/// crate root), or rewrites it when `UPDATE_GOLDEN` is set. A mismatch
/// panics naming the first diverging line.
pub fn assert_golden(rel_path: &str, got: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel_path);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("write golden snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("missing golden snapshot; run with UPDATE_GOLDEN=1 to create it");
    if want == got {
        return;
    }
    // The first diverging line; a missing or extra trailing line (or
    // final newline) counts as the divergence.
    let (want, got): (Vec<_>, Vec<_>) = (want.lines().collect(), got.lines().collect());
    let i = (0..want.len().max(got.len()))
        .find(|&i| want.get(i) != got.get(i))
        .unwrap_or(want.len());
    let line = |l: &[&str]| l.get(i).copied().unwrap_or("<end of file>").to_string();
    panic!(
        "golden snapshot mismatch at {rel_path}:{}\n  want: {}\n  got:  {}\n\
         (if the change is intentional, regenerate with UPDATE_GOLDEN=1)",
        i + 1,
        line(&want),
        line(&got),
    );
}
