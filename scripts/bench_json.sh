# bench_json.sh — shared bench_to_json helper, sourced by bench.sh and
# bench_scale.sh. Not executable on its own.
#
# host_kernels — which vector kernels internal/tensor selects on this
# host: "avx512" (AVX-512F), "avx" or "portable", read from the CPU
# flags the kernel reports in /proc/cpuinfo (Linux lists only the
# features whose register state the OS enables, as the CPUID + XGETBV
# check at init requires).
host_kernels() {
    local flags
    if [ "$(go env GOARCH)" != amd64 ] || ! flags=$(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null); then
        echo portable
        return
    fi
    case " ${flags#*:} " in
        *" avx512f "*) echo avx512 ;;
        *" avx "*) echo avx ;;
        *) echo portable ;;
    esac
}

# bench_to_json RAWFILE OUTFILE — fold `go test -bench` output into the
# hop-bench/v1 trajectory schema: a flat array of {bench, ns_per_op,
# allocs_per_op, bytes_per_op, mb_per_s, extra{...}} objects plus a
# header record with host metadata, the kernels included. Custom
# go-bench metrics (updates/s, steps/s, wireB/update, ...) land in
# extra{}.
bench_to_json() {
    awk -v out="$2" -v kernels="$(host_kernels)" '
BEGIN {
    n = 0
}
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name); sub(/^Benchmark/, "", name)
    ns = ""; bop = ""; aop = ""; mbs = ""; extra = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op")     ns  = $(i-1)
        else if ($(i) == "B/op")      bop = $(i-1)
        else if ($(i) == "allocs/op") aop = $(i-1)
        else if ($(i) == "MB/s")      mbs = $(i-1)
        else if ($(i) ~ /^[a-zA-Z]/ && $(i-1) ~ /^[0-9.eE+-]+$/) {
            if (extra != "") extra = extra ","
            extra = extra "\"" $(i) "\":" $(i-1)
        }
    }
    if (ns == "") next
    rec = "  {\"bench\":\"" name "\",\"ns_per_op\":" ns
    if (aop != "") rec = rec ",\"allocs_per_op\":" aop
    if (bop != "") rec = rec ",\"bytes_per_op\":" bop
    if (mbs != "") rec = rec ",\"mb_per_s\":" mbs
    if (extra != "") rec = rec ",\"extra\":{" extra "}"
    rec = rec "}"
    recs[n++] = rec
}
END {
    printf "{\n" > out
    printf "  \"schema\": \"hop-bench/v1\",\n" >> out
    cmd = "date -u +%Y-%m-%dT%H:%M:%SZ"; cmd | getline ts; close(cmd)
    cmd = "go env GOOS GOARCH"; cmd | getline goos; cmd | getline goarch; close(cmd)
    cmd = "getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0"; cmd | getline ncpu; close(cmd)
    printf "  \"timestamp\": \"%s\",\n", ts >> out
    printf "  \"goos\": \"%s\", \"goarch\": \"%s\", \"cpus\": %s,\n", goos, goarch, ncpu >> out
    printf "  \"cpu\": \"%s\",\n", cpu >> out
    printf "  \"kernels\": \"%s\",\n", kernels >> out
    printf "  \"results\": [\n" >> out
    for (i = 0; i < n; i++) printf "%s%s\n", recs[i], (i < n-1 ? "," : "") >> out
    printf "  ]\n}\n" >> out
}
' "$1"
}
