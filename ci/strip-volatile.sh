#!/usr/bin/env bash
# Strip the volatile fields from ise JSON outputs so byte-identity checks compare
# only deterministic content. Every CI smoke step funnels its outputs through this
# one filter; keep the list in sync with DESIGN.md §7 ("volatile envelope facts").
#
# Stripped fields:
#   *_seconds        wall-clock timings (enumerate/group/select metadata)
#   threads          worker pool size — outputs are thread-count invariant
#   par_threshold    fan-out plan knob — changes scheduling, never results
#   split_threshold  fixed echo (1000000) of the retired recursive-split knob;
#                    older outputs may carry another value or null
#   tasks            task decomposition size — ditto
#   cached           serve envelope: hit/miss flag, differs cold vs warm by design
#   elapsed_ms       serve envelope: wall-clock latency
#   elapsed_us       serve envelope: the same latency in microseconds
#   obs              stats payload: the metrics-registry snapshot (counters and
#                    timings move with load; the flat object is stripped whole)
#
# Usage: ci/strip-volatile.sh [FILE...]   (reads stdin when no file is given)
set -eu
sed -e 's/"[a-z_]*_seconds":[0-9.e-]*//g' \
    -e 's/"threads":[0-9]*//g' \
    -e 's/"par_threshold":[0-9]*//g' \
    -e 's/"split_threshold":\(null\|[0-9]*\)//g' \
    -e 's/"tasks":[0-9]*//g' \
    -e 's/"cached":[a-z]*//g' \
    -e 's/"elapsed_ms":[0-9.e-]*//g' \
    -e 's/"elapsed_us":[0-9.e-]*//g' \
    -e 's/"obs":{[^}]*}//g' \
    "$@"
