#!/usr/bin/env bash
# Keep docs/ honest: every file referenced from the docs must exist
# (binaries resolve to their .cpp, directories to themselves), every
# `path:line` pointer must land on a line naming the symbol the doc
# cites for it, and README must actually link the doc pages. Pure
# grep/sed/awk — no dependencies — so CI can run it anywhere. Run from
# the repository root.
set -u
cd "$(dirname "$0")/.."

fail=0
err() { echo "check_docs_links: $*" >&2; fail=1; }

# 1. README links each doc page, and the pages exist.
for doc in docs/GLOSSARY.md docs/MAPPERS.md docs/PERF.md docs/CACHE.md \
           docs/OBSERVABILITY.md docs/API.md docs/ROBUSTNESS.md \
           docs/MRRG.md docs/FRONTEND.md; do
  [ -f "$doc" ] || err "$doc is missing"
  grep -q "$doc" README.md || err "README.md does not link $doc"
done

# 1b. No dangling doc pages: every docs/*.md must be reachable — named
# in README.md or linked from a sibling doc page. A page nobody links
# is a page nobody maintains.
for doc in docs/*.md; do
  base=$(basename "$doc")
  if grep -q "$doc" README.md; then continue; fi
  if grep -lE "\]\(($base|docs/$base)\)" docs/*.md | \
       grep -qv "^$doc\$"; then continue; fi
  err "$doc is dangling: not linked from README.md or any other doc page"
done

# 2. Every path-like reference in docs/*.md resolves. Two shapes:
#    `src/foo/bar.hpp:123` (line-anchored) and `src/foo/bar.cpp`,
#    plus bench/, scripts/ and tests/ paths.
refs=$(grep -hoE '`(src|bench|scripts|tests)/[A-Za-z0-9_./-]+(:[0-9]+)?`' \
         docs/*.md | tr -d '`' | sort -u)
[ -n "$refs" ] || err "no path references found in docs/ (regex broke?)"
for ref in $refs; do
  path=${ref%%:*}
  # Extensionless references name a built binary (bench/perf_suite ->
  # bench/perf_suite.cpp) or a directory (src/solver/).
  if [ ! -e "$path" ] && [ ! -f "${path%.}" ] && [ ! -f "$path.cpp" ]; then
    err "$ref: $path does not exist (nor $path.cpp)"
    continue
  fi
  case $ref in
    *:*)
      line=${ref##*:}
      if [ ! -f "$path" ]; then
        err "$ref: line-anchored reference to a non-file"
        continue
      fi
      total=$(wc -l < "$path")
      if [ "$line" -gt "$total" ]; then
        err "$ref: $path has only $total lines"
      fi
      ;;
  esac
done

# 2b. Every `path:line` pointer lands on a line that names the symbol
#     the doc cites for it: the nearest backticked name before the
#     pointer, on the same doc line or else the line above. A name is a
#     backticked span that starts with a letter or `_` and holds no
#     `/`; its leading identifier is taken (`Mrrg::max_capacity() x II`
#     -> `Mrrg::max_capacity`), then its last `::` component. A line
#     count alone misses a pointer that drifted onto a neighbour.
cited=$(awk '
  function last_name(text,    name, span) {
    name = ""
    while (match(text, /`[^`]+`/)) {
      span = substr(text, RSTART + 1, RLENGTH - 2)
      text = substr(text, RSTART + RLENGTH)
      if (span ~ /^[A-Za-z_]/ && span !~ /\//) name = span
    }
    match(name, /^[A-Za-z_][A-Za-z0-9_:]*/)
    name = substr(name, RSTART, RLENGTH)
    sub(/.*::/, "", name)
    return name
  }
  {
    rest = $0; before = ""
    while (match(rest, /`(src|bench|scripts|tests)\/[A-Za-z0-9_.\/-]+:[0-9]+`/)) {
      ref = substr(rest, RSTART + 1, RLENGTH - 2)
      before = before substr(rest, 1, RSTART + RLENGTH - 1)
      rest = substr(rest, RSTART + RLENGTH)
      name = last_name(before)
      if (name == "") name = last_name(prev)
      print FILENAME ":" FNR " " ref " " (name == "" ? "-" : name)
    }
    prev = $0
  }' docs/*.md)
while read -r where ref name; do
  [ -n "$where" ] || continue
  path=${ref%%:*}
  line=${ref##*:}
  [ -f "$path" ] || continue  # reported by check 2
  if [ "$name" = "-" ]; then
    err "$where: $ref cites no backticked name before it"
  elif ! sed -n "${line}p" "$path" | grep -qw -- "$name"; then
    err "$where: $ref does not name \`$name\`: $(sed -n "${line}p" "$path")"
  fi
done <<< "$cited"

# 3. Relative markdown links inside docs/ resolve.
links=$(grep -hoE '\]\(([A-Za-z0-9_./-]+\.md)\)' docs/*.md | \
          sed -E 's/^\]\((.*)\)$/\1/' | sort -u)
for l in $links; do
  [ -f "docs/$l" ] || [ -f "$l" ] || err "docs link $l does not resolve"
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs_links: FAILED" >&2
  exit 1
fi
echo "check_docs_links: OK ($(echo "$refs" | wc -l) path refs checked)"
