#!/usr/bin/env bash
# Prints the code size figure that ROADMAP.md tracks: the non-test lines of
# every `.rs` file under `crates/*/src` (bins included), where a file's lines
# are counted up to its first top-level `#[cfg(test)]` line.
#
# Usage, from the repository root:
#   ci/loc.sh
set -eu
find crates/*/src -name '*.rs' -print0 | sort -z |
    xargs -0 awk 'FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { print n }'
