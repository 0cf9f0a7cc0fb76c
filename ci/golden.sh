#!/usr/bin/env bash
# Golden output digests. Runs `ise enumerate`, `ise enumerate --nout 3`,
# `ise group`, `ise group --nin 2 --nout 1`, per-block `ise select` and
# `ise select --global` over the committed corpus at --budget 100000
# --threads 2, replays ci/serve-requests.jsonl through `ise serve` on stdin,
# strips the volatile
# fields with ci/strip-volatile.sh, and checks the MD5 of each stripped output
# against ci/golden.md5. The stripped serve replay keeps each response's `key`,
# so its row pins the serve cache keys (the `--cache-dir` file names) as well as
# the payloads. `update` rewrites ci/golden.md5 instead: do that only in a
# change that is meant to change the output, and say so in its description
# (DESIGN.md §4).
#
# Usage, from the repository root:
#   ci/golden.sh [check|update] [ISE_BINARY]   (binary default: target/release/ise)
set -eu
mode=${1:-check}
ise=${2:-target/release/ise}
golden=$PWD/ci/golden.md5
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

run() { # run NAME ARGS...: writes the command's stripped output to $dir/NAME.stripped
    name=$1
    shift
    "$ise" "$@" --corpus corpus --budget 100000 --threads 2 --out "$dir/$name.json" >/dev/null
    ci/strip-volatile.sh "$dir/$name.json" >"$dir/$name.stripped"
}
run enumerate enumerate
run enumerate-nout3 enumerate --nout 3
run group group
run group-nin2-nout1 group --nin 2 --nout 1
run select select
run select-global select --global
"$ise" serve <ci/serve-requests.jsonl | ci/strip-volatile.sh >"$dir/serve.stripped"

case $mode in
check) (cd "$dir" && md5sum -c "$golden") ;;
update) (cd "$dir" && md5sum enumerate.stripped enumerate-nout3.stripped group.stripped \
    group-nin2-nout1.stripped select.stripped select-global.stripped serve.stripped) >"$golden" ;;
*)
    echo "usage: ci/golden.sh [check|update] [ISE_BINARY]" >&2
    exit 2
    ;;
esac
