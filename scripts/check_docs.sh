#!/usr/bin/env bash
# check_docs.sh — the docs gate CI runs (see .github/workflows/ci.yml).
#
# Checks, over every tracked *.md file:
#   1. every relative markdown link [text](path) resolves to a file or
#      directory in the repo (anchors and external http(s)/mailto links
#      are skipped);
#   2. every `internal/<pkg>`, `cmd/<name>`, `examples/<name>` or
#      `scripts/<name>` path mentioned in README.md actually exists, and
#      so does every package the README's package-map tree names under
#      `internal/` (rows like "  nn / model / svm / opt / data ..."), so the
#      package map cannot keep listing a deleted package — and every
#      `internal/` package with non-test Go code is named in that tree,
#      so a new package cannot land unmapped;
#   3. every `DESIGN.md §x.y` cited from a tracked *.go file is the
#      number of a DESIGN.md heading, so renumbering a section cannot
#      leave source comments pointing at another one;
#   4. every protocol mode the spec grammar accepts (the modeNames
#      table of internal/core/config.go) is named in README.md as
#      `mode`, so a new mode cannot land undocumented;
#   5. every camelCase or PascalCase identifier with an inner capital
#      (`applyDeathsLocked`, `CloseSends`) inside a backticked span on a
#      DESIGN.md line occurs in a tracked *.go file, so deleting or
#      renaming a function, exported or not, cannot leave the design
#      prose naming it. Markdown table rows are exempt: they record
#      before/after measurements of code that has since been deleted.
#   6. DESIGN.md and BENCH.md stay within a byte ceiling: a document
#      grows only if something else in it is cut;
#   7. every `-flag` in the flag column of DESIGN.md §5.0's knob table
#      is registered by some command under cmd/, so deleting a flag
#      cannot leave the table naming it;
#   8. the newest CHANGES.md entry (the last line starting "PR <n>" or
#      "- PR <n>") is at most 1536 bytes: details belong in DESIGN.md
#      and the commit, not in a log nobody rereads whole.
#
# Usage: scripts/check_docs.sh    (exits non-zero listing broken refs)

set -euo pipefail
cd "$(dirname "$0")/.."

errors=""

note() {
    errors="${errors}${1}
"
}

# --- 1. relative links in markdown files -----------------------------
for md in $(git ls-files '*.md'); do
    case "$md" in
        # Retrieved reference material, not authored docs: exemplar
        # snippets quote other repos' markdown verbatim.
        SNIPPETS.md|PAPERS.md|PAPER.md) continue ;;
    esac
    dir=$(dirname "$md")
    # Extract link targets: [...](target); tolerate several per line.
    for target in $(grep -oE '\[[^]]*\]\([^) ]+\)' "$md" 2>/dev/null |
                    sed -E 's/^\[[^]]*\]\(([^)]+)\)$/\1/'); do
        case "$target" in
            http://*|https://*|mailto:*) continue ;;
        esac
        path="${target%%#*}" # strip anchors
        [ -z "$path" ] && continue
        # Relative links resolve from the file's own directory (as
        # GitHub renders them) — no repo-root fallback, or a broken
        # subdirectory link that happens to exist at the root passes.
        if [ ! -e "$dir/$path" ]; then
            note "BROKEN LINK: $md -> $target"
        fi
    done
done

# --- 2. package-map paths named in README.md -------------------------
if [ -f README.md ]; then
    for p in $(grep -oE '(internal|cmd|examples|scripts)/[A-Za-z0-9._-]+' README.md | sort -u); do
        if [ ! -e "$p" ]; then
            note "BROKEN PACKAGE REF: README.md names $p which does not exist"
        fi
    done
    # The tree under the "internal/" line of the package map: a row
    # starts with exactly two spaces and one or more package names
    # joined by " / "; deeper-indented rows continue a description.
    mapped=$(awk '
        /^internal\/$/ { tree = 1; next }
        /^```/ { tree = 0 }
        tree && /^  [a-z]/ {
            for (i = 1; i <= NF; i += 2) {
                print $i
                if ($(i + 1) != "/") break
            }
        }' README.md)
    for pkg in $mapped; do
        if [ ! -d "internal/$pkg" ]; then
            note "BROKEN PACKAGE REF: README.md package map lists internal/$pkg which does not exist"
        fi
    done
    for dir in internal/*/; do
        pkg=$(basename "$dir")
        if ls "$dir" | grep -v '_test\.go$' | grep -q '\.go$' &&
           ! grep -qxF "$pkg" <<< "$mapped"; then
            note "UNMAPPED PACKAGE: internal/$pkg is missing from README.md's package map"
        fi
    done
fi

# --- 3. DESIGN.md sections cited from Go sources ---------------------
while IFS=: read -r file line ref; do
    sec="${ref#DESIGN.md }"
    if ! grep -qE "^#+ ${sec//./\\.} " DESIGN.md; then
        note "BROKEN SECTION REF: $file:$line cites $ref, which is not a heading of DESIGN.md"
    fi
done < <(git ls-files '*.go' | xargs grep -noE 'DESIGN\.md §[0-9]+(\.[0-9]+[a-z]?)?')

# --- 4. protocol modes named in README.md ----------------------------
modes=$(awk '/^var modeNames = /{ on = 1; next } on && /^}/{ on = 0 } on' internal/core/config.go |
        grep -oE '"[^"]+"' | tr -d '"' || true)
[ -z "$modes" ] && note "MODE LIST: no modeNames table found in internal/core/config.go"
for mode in $modes; do
    if ! grep -qF "\`$mode\`" README.md; then
        note "MISSING MODE: README.md does not name protocol mode \`$mode\`"
    fi
done

# --- 5. identifiers named in DESIGN.md prose -------------------------
for id in $(grep -vE '^[[:space:]]*\|' DESIGN.md | grep -oE '`[^`]+`' |
            grep -oE '(^|[^A-Za-z0-9_])([a-z]|[A-Z][a-z])[a-z0-9]*[A-Z][A-Za-z0-9]*' |
            sed -E 's/^[^A-Za-z]//' | sort -u); do
    if ! git grep -qw -e "$id" -- '*.go'; then
        note "STALE NAME: DESIGN.md names \`$id\`, which no tracked .go file contains"
    fi
done

# --- 6. document size budget -----------------------------------------
for budget in DESIGN.md:118255 BENCH.md:31506; do
    doc=${budget%%:*} max=${budget#*:}
    size=$(wc -c < "$doc")
    if [ "$size" -gt "$max" ]; then
        note "OVER BUDGET: $doc is $size bytes, over its $max-byte ceiling: cut before adding"
    fi
done

# --- 7. flags named in DESIGN.md §5.0's knob table -------------------
flags=$(awk '/^### §5\.0 /{ on = 1; next } /^#/{ on = 0 } on && /^\|/' DESIGN.md |
        awk -F'|' '{ print $3 }' | grep -oE '(^|[ `])-[a-z][a-z0-9-]*' |
        sed -E 's/^[ `]//' | sort -u || true)
[ -z "$flags" ] && note "FLAG TABLE: no flags found in DESIGN.md §5.0's knob table"
for fl in $flags; do
    if ! git grep -qF "(\"${fl#-}\"," -- 'cmd/*.go' ':!*_test.go'; then
        note "STALE FLAG: DESIGN.md §5.0 names $fl, which no command under cmd/ registers"
    fi
done

# --- 8. the newest CHANGES.md entry's size --------------------------
entry=$(grep -E '^(- )?PR [0-9]+' CHANGES.md | tail -n 1 || true)
size=$(printf '%s' "$entry" | LC_ALL=C wc -c)
if [ -z "$entry" ]; then
    note "CHANGES.md: no entry found"
elif [ "$size" -gt 1536 ]; then
    note "OVER BUDGET: the newest CHANGES.md entry (${entry:0:12}...) is $size bytes, over 1536"
fi

if [ -n "$errors" ]; then
    printf '%s' "$errors" >&2
    echo "docs check failed" >&2
    exit 1
fi
echo "docs check ok"
