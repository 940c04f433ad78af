#!/bin/sh
# Lists every value a lib/ interface exports that no other module names:
# each `val NAME` of a lib/**/*.mli whose NAME appears as a word in no .ml
# under lib/, bin/, bench/, test/ or examples/ other than the module's
# own .ml. It is a word scan, so a common name used elsewhere for
# something else hides an unused export; it never reports a used one.
# Prints Module.name per line and nothing when every export has a caller.
#
# Usage: sh tools/unused_exports.sh   (from the repository root)
set -eu
cd "$(dirname "$0")/.."
sources=$(find lib bin bench test examples -name '*.ml' | sort)
for mli in $(find lib -name '*.mli' | sort); do
  own=${mli%i}
  others=$(printf '%s\n' "$sources" | grep -vxF "$own")
  module=$(basename "$own" .ml | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  for v in $(sed -nE "s/^[[:space:]]*val[[:space:]]+([a-z_][A-Za-z0-9_']*).*/\1/p" "$mli" | sort -u); do
    # shellcheck disable=SC2086
    grep -qwF -- "$v" $others || echo "$module.$v"
  done
done
