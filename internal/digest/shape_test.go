package digest_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"warpedslicer/internal/core"
	"warpedslicer/internal/digest"
	"warpedslicer/internal/gpu"
)

// The digest layer promises that two runs with equal chains have equal
// architectural state — a promise that silently breaks when someone adds
// state to a component without extending its DigestInto walk. This test
// fingerprints the struct shape — exported AND unexported fields — of
// everything reachable from the digest roots (the GPU and the dynamic
// controller) and pins one fingerprint per digest.Version: adding or
// removing a field anywhere in that graph fails the test until the digest
// version is bumped and the new shape is pinned, forcing a conscious
// decision about whether the new field belongs in the canonical-state
// traversal.
//
// Division of labor with the statecov analyzer (internal/lint): this pin
// detects that a field APPEARED or VANISHED (layout drift, cross-version);
// statecov proves each field is actually READ by its type's DigestInto or
// carries a //simlint:nodigest justification (coverage, per-build). The
// pin cannot see an unread field; the analyzer cannot see a removed one
// that took its digest call along with it. Together they close both
// halves of the contract.

// skipPkgs are observability / static-configuration packages excluded
// from the canonical-state contract (their state is deliberately not
// digested, so shape changes there must not force a version bump).
var skipPkgs = map[string]bool{
	"warpedslicer/internal/obs":    true,
	"warpedslicer/internal/span":   true,
	"warpedslicer/internal/prof":   true,
	"warpedslicer/internal/trace":  true,
	"warpedslicer/internal/config": true,
}

// skipTypes are individual module-local types excluded from the walk:
// kernels.Spec is a static workload description (digested by identity
// only — its Abbr).
var skipTypes = map[string]bool{
	"warpedslicer/internal/kernels.Spec": true,
}

// shapeLines walks the module-local struct graph and returns one line per
// field — exported and unexported alike: "pkg.Type.Field fieldType".
// Unexported fields carry just as much architectural state (the warp
// scoreboard, the SM memory queue, the cache LRU clock), so the pin must
// see them; before PR 9 they were traversed but not recorded, which let
// an unexported-field add slip past the fingerprint.
func shapeLines(roots ...reflect.Type) []string {
	seen := map[reflect.Type]bool{}
	var lines []string
	var walk func(t reflect.Type)
	walk = func(t reflect.Type) {
		for {
			switch t.Kind() {
			case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map, reflect.Chan:
				t = t.Elem()
				continue
			}
			break
		}
		if t.Kind() != reflect.Struct || seen[t] {
			return
		}
		pkg := t.PkgPath()
		if !strings.HasPrefix(pkg, "warpedslicer/") || skipPkgs[pkg] || skipTypes[pkg+"."+t.Name()] {
			return
		}
		seen[t] = true
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			lines = append(lines, fmt.Sprintf("%s.%s.%s %s", pkg, t.Name(), f.Name, f.Type.String()))
			walk(f.Type)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	sort.Strings(lines)
	return lines
}

func shapeFingerprint() digest.Sum {
	lines := shapeLines(
		reflect.TypeOf(gpu.GPU{}),
		reflect.TypeOf(core.Controller{}),
	)
	h := digest.NewHasher()
	h.Int(len(lines))
	for _, l := range lines {
		h.Str(l)
	}
	return h.Sum()
}

// pinnedShape maps each digest.Version to the struct-shape fingerprint it
// was audited against. (The Version 1 pin was re-recorded three times
// without a version bump, because no change altered a hashed byte: once
// when the walk started including unexported fields — only the
// fingerprint's coverage changed — once when the memory queues,
// miss-waiter maps and SM writeback ring moved onto the queue package's
// rings, waiter tables and a node arena, whose walks hash each queue front
// to back and each waiter table in sorted line order exactly as the slices
// and maps they replaced did, and once when the SM scheduler's derived
// cache gained the replay bound retryAt/retryMemQ, which the SM digest
// excludes like the rest of that cache.)
var pinnedShape = map[int]digest.Sum{
	1: 0xe90bdd2a0a11f60a,
}

func TestStructShapePinnedToDigestVersion(t *testing.T) {
	want, ok := pinnedShape[digest.Version]
	if !ok {
		t.Fatalf("no pinned struct shape for digest.Version %d: audit the DigestInto walks and pin %s",
			digest.Version, shapeFingerprint())
	}
	got := shapeFingerprint()
	if got != want {
		t.Fatalf("state shape changed: fingerprint %s, pinned %s for digest.Version %d.\n"+
			"A struct reachable from the digest roots gained or lost a field. Decide whether the\n"+
			"field is architectural state: if yes, add it to the component's DigestInto walk; if no, document\n"+
			"the exclusion in internal/sm/digest.go or DESIGN.md. Then bump digest.Version and re-pin.\n"+
			"Current shape:\n  %s",
			got, want, digest.Version, strings.Join(shapeLines(
				reflect.TypeOf(gpu.GPU{}), reflect.TypeOf(core.Controller{})), "\n  "))
	}
}

// TestShapeWalkCoversKnownState guards the walker itself: if the walk
// ever stops descending (a refactor hides the graph behind interfaces),
// the fingerprint would freeze and the pin would stop protecting
// anything. Spot-check that known deep fields are in the line set.
func TestShapeWalkCoversKnownState(t *testing.T) {
	lines := shapeLines(reflect.TypeOf(gpu.GPU{}), reflect.TypeOf(core.Controller{}))
	for _, want := range []string{
		"warpedslicer/internal/gpu.Kernel.NextCTA int",
		"warpedslicer/internal/sm.Stats.Issued uint64",
		"warpedslicer/internal/warp.Warp.OutstandingLoads int",
		"warpedslicer/internal/core.Controller.Partition []int",
		// Unexported architectural state must be in the line set too —
		// the PR 9 gap this file used to have.
		"warpedslicer/internal/warp.Warp.fetchReadyAt int64",
		"warpedslicer/internal/queue.Ring[warpedslicer/internal/sm.lineOp].n int",
		"warpedslicer/internal/cache.Cache.tick uint64",
	} {
		found := false
		for _, l := range lines {
			if l == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("shape walk lost %q — walker no longer descends this part of the graph", want)
		}
	}
}

// probeBase and probeGrown differ only by one unexported field; renaming
// probeGrown's lines to probeBase's name makes the extra field the sole
// difference between the two shapes.
type probeBase struct {
	Counter uint64
	hidden  int64
}

type probeGrown struct {
	Counter uint64
	hidden  int64
	slipped int64 // the unexported add the fingerprint must catch
}

// TestShapeFingerprintSeesUnexportedFields demonstrates the closed gap:
// adding an unexported field to a struct in the walked graph changes the
// recorded shape, so the pinned fingerprint fails until the addition is
// audited. reflect cannot synthesize unexported fields (StructOf rejects
// them), so the probes are declared types.
func TestShapeFingerprintSeesUnexportedFields(t *testing.T) {
	base := shapeLines(reflect.TypeOf(probeBase{}))
	grown := shapeLines(reflect.TypeOf(probeGrown{}))
	for i, l := range grown {
		grown[i] = strings.ReplaceAll(l, "probeGrown", "probeBase")
	}

	wantHidden := false
	for _, l := range base {
		if strings.HasSuffix(l, ".probeBase.hidden int64") {
			wantHidden = true
		}
	}
	if !wantHidden {
		t.Fatalf("unexported field not recorded by the shape walk:\n  %s", strings.Join(base, "\n  "))
	}

	hash := func(lines []string) digest.Sum {
		h := digest.NewHasher()
		h.Int(len(lines))
		for _, l := range lines {
			h.Str(l)
		}
		return h.Sum()
	}
	if hash(base) == hash(grown) {
		t.Fatal("adding an unexported field did not change the shape fingerprint")
	}
}
