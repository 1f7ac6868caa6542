#!/usr/bin/env bash
# A/A check: run the full set twice on this commit and require that the two
# sets agree within the benchmark's own bounds. ~6 minutes on 2 cores.
#
#   bash benchmark/aa.sh [seed-a] [seed-b]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed_a="${1:-1}"
seed_b="${2:-2}"
mkdir -p "$here/out"
bash "$here/run.sh" run --seed "$seed_a" --out "$here/out/aa-a.json"
bash "$here/run.sh" run --seed "$seed_b" --out "$here/out/aa-b.json"
bash "$here/run.sh" agree "$here/out/aa-a.json" "$here/out/aa-b.json"
