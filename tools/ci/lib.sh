# Shared by the CI lanes, tools/ci/<lane>.sh: one script per CI job, run
# the same way on a runner and on a developer machine, from any directory:
#
#   tools/ci/rt-multiproc-smoke.sh     # a PR/push lane takes no input
#   tools/ci/fuzz-nightly.sh 12345     # a nightly lane takes the seed
#
# A lane runs in a fresh ci-work/<lane>/ and, on exit, pass or fail, copies
# the artifacts it names to a fresh ci-out/<lane>/, which CI uploads.
# Sourced by the lanes, not run.

ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)

# ccache is the compiler launcher when it is on PATH: CMake reads this
# variable on a fresh configure, perfbench/run.py's own build included.
if command -v ccache >/dev/null; then
  export CMAKE_CXX_COMPILER_LAUNCHER=ccache
  ccache --zero-stats >/dev/null
fi

# lane NAME ARTIFACT...: start lane NAME in a fresh ci-work/NAME and copy
# whichever of the ARTIFACTs exist to ci-out/NAME when the lane exits.
lane() {
  LANE_OUT="$ROOT/ci-out/$1"
  rm -rf "$LANE_OUT" "$ROOT/ci-work/$1"
  mkdir -p "$LANE_OUT" "$ROOT/ci-work/$1"
  cd "$ROOT/ci-work/$1"
  shift
  LANE_ARTIFACTS=("$@")
  trap 'for f in "${LANE_ARTIFACTS[@]}"; do
          if [ -e "$f" ]; then cp "$f" "$LANE_OUT/"; fi
        done' EXIT
}

# build PRESET TARGET...: configure the CMake preset with Ninja and build
# the targets.
build() {
  local preset=$1
  shift
  (cd "$ROOT" && cmake --preset "$preset" -G Ninja &&
    cmake --build --preset "$preset" -j --target "$@")
}

# The default preset's command-line tools.
gossiplab() { "$ROOT/build/tools/gossiplab" "$@"; }
tracecheck() { "$ROOT/build/tools/tracecheck" "$@"; }

# summary TITLE FILE...: append the files under a heading to the GitHub
# Actions job summary; nothing happens outside Actions.
summary() {
  if [ -z "${GITHUB_STEP_SUMMARY:-}" ]; then return 0; fi
  local title=$1
  shift
  { echo "### $title"; echo '```'; cat "$@"; echo '```'; } \
    >>"$GITHUB_STEP_SUMMARY"
}
