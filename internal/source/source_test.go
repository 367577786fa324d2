package source

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"mube/internal/pcsa"
	"mube/internal/schema"
	"mube/internal/testutil/approx"
)

var testCfg = pcsa.Config{NumMaps: 64}

// makeSource builds a cooperative source over tuples [lo, hi).
func makeSource(t *testing.T, name string, lo, hi uint64, attrs ...string) *Source {
	t.Helper()
	tuples := make([]TupleID, 0, hi-lo)
	for x := lo; x < hi; x++ {
		tuples = append(tuples, x)
	}
	s, err := FromTuples(name, schema.NewSchema(attrs...), NewSliceIterator(tuples), testCfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFromTuples(t *testing.T) {
	s := makeSource(t, "a", 0, 5000, "title", "author")
	if !s.Cooperative() {
		t.Error("FromTuples source should be cooperative")
	}
	if s.Cardinality != 5000 {
		t.Errorf("Cardinality = %d, want 5000", s.Cardinality)
	}
	est := s.Signature.Estimate()
	if math.Abs(est-5000)/5000 > 0.25 {
		t.Errorf("signature estimate %v too far from 5000", est)
	}
}

func TestUncooperative(t *testing.T) {
	s := Uncooperative("u", schema.NewSchema("keyword"))
	if s.Cooperative() {
		t.Error("Uncooperative source reports Cooperative")
	}
	if s.Cardinality != -1 || s.Signature != nil {
		t.Error("Uncooperative source should hide data characteristics")
	}
}

func TestUniverseAddAssignsIDs(t *testing.T) {
	u := NewUniverse(testCfg)
	for i := 0; i < 3; i++ {
		id, err := u.Add(makeSource(t, "s", 0, 100, "a"))
		if err != nil {
			t.Fatal(err)
		}
		if int(id) != i {
			t.Errorf("id = %d, want %d", id, i)
		}
	}
	if u.Len() != 3 {
		t.Errorf("Len = %d", u.Len())
	}
}

func TestUniverseRejectsMismatchedSignature(t *testing.T) {
	u := NewUniverse(pcsa.Config{NumMaps: 128})
	s := makeSource(t, "bad", 0, 10, "a") // built with testCfg (64 maps)
	if _, err := u.Add(s); err != ErrSignatureConfig {
		t.Errorf("expected ErrSignatureConfig, got %v", err)
	}
}

func TestTotalCardinalityAndUnion(t *testing.T) {
	u := NewUniverse(testCfg)
	mustAdd(t, u, makeSource(t, "a", 0, 10000, "x"))
	mustAdd(t, u, makeSource(t, "b", 5000, 15000, "y")) // overlaps a by 5000
	mustAdd(t, u, Uncooperative("c", schema.NewSchema("z")))

	if got := u.TotalCardinality(); got != 20000 {
		t.Errorf("TotalCardinality = %d, want 20000", got)
	}
	est := u.UnionAllEstimate()
	if math.Abs(est-15000)/15000 > 0.20 {
		t.Errorf("UnionAllEstimate = %v, want ≈15000", est)
	}
	// The union of the cooperative sources is the union of all.
	sub, err := pcsa.Union(u.Source(0).Signature, u.Source(1).Signature)
	if err != nil {
		t.Fatal(err)
	}
	if !approx.AlmostEqual(sub.Estimate(), est) {
		t.Errorf("subset union %v should equal all-cooperative union %v", sub.Estimate(), est)
	}
	if got := u.SumCardinality([]schema.SourceID{0, 2}); got != 10000 {
		t.Errorf("SumCardinality = %d, want 10000", got)
	}
}

func TestAggregatesInvalidatedByAdd(t *testing.T) {
	u := NewUniverse(testCfg)
	mustAdd(t, u, makeSource(t, "a", 0, 1000, "x"))
	before := u.TotalCardinality()
	mustAdd(t, u, makeSource(t, "b", 1000, 3000, "y"))
	after := u.TotalCardinality()
	if after != before+2000 {
		t.Errorf("TotalCardinality not invalidated: before=%d after=%d", before, after)
	}
}

func TestCharacteristicRange(t *testing.T) {
	u := NewUniverse(testCfg)
	a := Uncooperative("a", schema.NewSchema("x"))
	a.SetCharacteristic("mttf", 50)
	b := Uncooperative("b", schema.NewSchema("y"))
	b.SetCharacteristic("mttf", 150)
	b.SetCharacteristic("fees", 3)
	mustAdd(t, u, a)
	mustAdd(t, u, b)

	min, max, ok := u.CharacteristicRange("mttf")
	if !ok || !approx.AlmostEqual(min, 50) || !approx.AlmostEqual(max, 150) {
		t.Errorf("mttf range = (%v,%v,%v), want (50,150,true)", min, max, ok)
	}
	if _, _, ok := u.CharacteristicRange("latency"); ok {
		t.Error("undefined characteristic should report ok=false")
	}
	names := u.CharacteristicNames()
	if len(names) != 2 || names[0] != "fees" || names[1] != "mttf" {
		t.Errorf("CharacteristicNames = %v", names)
	}
	// Memoized second call returns the same.
	min2, max2, _ := u.CharacteristicRange("mttf")
	if !approx.AlmostEqual(min2, min) || !approx.AlmostEqual(max2, max) {
		t.Error("memoized range differs")
	}
}

func TestAttrName(t *testing.T) {
	u := NewUniverse(testCfg)
	mustAdd(t, u, Uncooperative("a", schema.NewSchema("title", "author")))
	got := u.AttrName(schema.AttrRef{Source: 0, Attr: 1})
	if got != "author" {
		t.Errorf("AttrName = %q", got)
	}
	if u.NumAttrs() != 2 {
		t.Errorf("NumAttrs = %d", u.NumAttrs())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	u := NewUniverse(testCfg)
	a := makeSource(t, "coop", 0, 2000, "title", "author")
	a.SetCharacteristic("mttf", 93.5)
	mustAdd(t, u, a)
	shy := Uncooperative("shy", schema.NewSchema("keyword"))
	for _, name := range []string{"zeta", "fees", "mttf", "latency", "beta", "kappa", "alpha", "reputation"} {
		shy.SetCharacteristic(name, float64(len(name)))
	}
	mustAdd(t, u, shy)

	var buf bytes.Buffer
	if err := u.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("round-trip Len = %d", back.Len())
	}
	s0, s1 := back.Source(0), back.Source(1)
	if s0.Name != "coop" || s0.Cardinality != 2000 || !s0.Cooperative() {
		t.Errorf("source 0 mangled: %+v", s0)
	}
	if got, _ := s0.Characteristic("mttf"); !approx.AlmostEqual(got, 93.5) {
		t.Errorf("mttf = %v", got)
	}
	if !approx.AlmostEqual(s0.Signature.Estimate(), a.Signature.Estimate()) {
		t.Error("signature estimate changed in round trip")
	}
	if s1.Cooperative() {
		t.Error("source 1 should stay uncooperative")
	}
	if s1.Schema.Name(0) != "keyword" {
		t.Errorf("schema mangled: %v", s1.Schema)
	}
	// ReadJSON leaves the characteristics in name order, with their values.
	if len(s1.Characteristics) != len(shy.Characteristics) ||
		!slices.IsSortedFunc(s1.Characteristics, func(a, b Characteristic) int { return strings.Compare(a.Name, b.Name) }) {
		t.Errorf("characteristics read back as %v", s1.Characteristics)
	}
	for _, c := range shy.Characteristics {
		if v, ok := s1.Characteristic(c.Name); !ok || math.Float64bits(v) != math.Float64bits(c.Value) {
			t.Errorf("characteristic %q read back as %v, %v", c.Name, v, ok)
		}
	}
	if back.SignatureConfig() != testCfg {
		t.Errorf("config = %+v", back.SignatureConfig())
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{nonsense")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`{"sig_num_maps":64,"sources":[{"name":"x","attrs":["a"],"signature":"!!!"}]}`)); err == nil {
		t.Error("bad base64 accepted")
	}
	// A power of two too wide for any counter, on schema-only sources that
	// carry no signature to catch it.
	hostile := `{"sig_num_maps":1099511627776,"sources":[` +
		`{"name":"a","attrs":["x"]},{"name":"b","attrs":["x"]},{"name":"c","attrs":["y"]}]}`
	if _, err := ReadJSON(bytes.NewBufferString(hostile)); err == nil {
		t.Error("sig_num_maps 2^40 accepted")
	}
}

// TestCharacteristicRangeOverflow: a universe whose characteristic range
// overflows (max − min = +Inf) used to normalize the source at the maximum to
// Inf/Inf = NaN, which made Q(S) NaN for any S holding it. Add now refuses a
// characteristic that is negative, NaN or infinite, naming it, and ReadJSON
// surfaces the refusal; zero and the largest finite value are accepted, and
// their column lies in [0, 1].
func TestCharacteristicRangeOverflow(t *testing.T) {
	overflow := `{"sig_num_maps":0,"sources":[` +
		`{"name":"a","attrs":["x"],"characteristics":{"mttf":-1e308}},` +
		`{"name":"b","attrs":["y"],"characteristics":{"mttf":1e308}}]}`
	if _, err := ReadJSON(bytes.NewBufferString(overflow)); !errors.Is(err, ErrCharacteristic) {
		t.Fatalf("ReadJSON of an overflowing mttf range = %v, want ErrCharacteristic", err)
	}
	for _, v := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		u := NewUniverse(testCfg)
		s := Uncooperative("s", schema.NewSchema("x"))
		s.SetCharacteristic("fees", 1)
		s.SetCharacteristic("mttf", v)
		if _, err := u.Add(s); !errors.Is(err, ErrCharacteristic) || u.Len() != 0 {
			t.Errorf("Add with mttf %v = %v (universe of %d), want ErrCharacteristic and no source", v, err, u.Len())
		}
	}
	u := NewUniverse(testCfg)
	for i, v := range []float64{0, math.MaxFloat64} {
		s := Uncooperative(fmt.Sprint("s", i), schema.NewSchema("x"))
		s.SetCharacteristic("mttf", v)
		mustAdd(t, u, s)
	}
	if col := u.NormalizedCharacteristic("mttf"); col[0] != 0 || math.Float64bits(col[1]) != math.Float64bits(1) {
		t.Errorf("column over {0, MaxFloat64} = %v, want [0 1]", col)
	}
}

// TestAddRehomesSchemas: Add moves a schema built on another vocabulary
// onto the universe's by name, so Len, Name, IndexOf and String read as
// before, a repeated name included, and every source of the universe then
// reports the universe's vocabulary. The schema a source was given is not
// touched, so another universe holding it still reads its names.
func TestAddRehomesSchemas(t *testing.T) {
	other := NewUniverse(testCfg)
	held := Uncooperative("held", schema.NewSchema("isbn", "title"))
	mustAdd(t, other, held)
	u := NewUniverse(testCfg)
	u.Vocab().Intern("zeta") // the universe's ids differ from the private ones
	for _, sch := range []schema.Schema{
		schema.NewSchema("title", "author", "title", "price"),
		schema.NewSchema(),
		{},
		held.Schema,
		schema.FromIDs(u.Vocab(), []int32{u.Vocab().Intern("zeta"), u.Vocab().Intern("isbn")}),
	} {
		s := Uncooperative("s", sch)
		names := make([]string, sch.Len())
		for i := range names {
			names[i] = sch.Name(i)
		}
		str := sch.String()
		mustAdd(t, u, s)
		if s.Schema.Len() != len(names) || s.Schema.String() != str {
			t.Errorf("re-homed %v reads %v", str, s.Schema)
		}
		for i, name := range names {
			if s.Schema.Name(i) != name || s.Schema.IndexOf(name) != sch.IndexOf(name) {
				t.Errorf("re-homed %v: attribute %d is %q at IndexOf %d, want %q at %d",
					str, i, s.Schema.Name(i), s.Schema.IndexOf(name), name, sch.IndexOf(name))
			}
		}
		if s.Schema.IndexOf("missing") != -1 {
			t.Errorf("re-homed %v finds a missing name", str)
		}
	}
	if i := u.Source(0).Schema.IndexOf("title"); i != 0 {
		t.Errorf("IndexOf a repeated name = %d, want its first position 0", i)
	}
	for _, s := range u.Sources() {
		if s.Schema.Vocab() != u.Vocab() {
			t.Errorf("source %d is not on the universe's vocabulary", s.ID)
		}
	}
	if held.Schema.Vocab() != other.Vocab() || held.Schema.String() != "{isbn, title}" {
		t.Errorf("the other universe's source now reads %v", held.Schema)
	}
}

// TestCharacteristicErrors: Add refuses a characteristic name set twice,
// however long the list, naming the alphabetically first repeated name; a
// bad value is reported under the alphabetically first bad name whatever the
// slice's order; SetCharacteristic replaces a value instead of repeating its
// name.
func TestCharacteristicErrors(t *testing.T) {
	long := make([]Characteristic, 0, 40)
	for i := 39; i >= 0; i-- {
		long = append(long, Characteristic{Name: fmt.Sprintf("c%02d", i%30), Value: 1})
	}
	for _, tc := range []struct {
		chars []Characteristic
		name  string
	}{
		{[]Characteristic{{"mttf", 1}, {"fees", 2}, {"mttf", 1}}, `"mttf"`},
		{[]Characteristic{{"zz", 1}, {"fees", 2}, {"zz", 3}, {"fees", 2}}, `"fees"`},
		{long, `"c00"`},
		{[]Characteristic{{"zz", -1}, {"aa", math.NaN()}, {"mm", 1}}, `"aa"`},
		{[]Characteristic{{"mm", 1}, {"zz", math.Inf(1)}, {"kk", -2}, {"mm", 1}}, `"kk"`},
	} {
		u := NewUniverse(testCfg)
		s := Uncooperative("s", schema.NewSchema("x"))
		s.Characteristics = tc.chars
		_, err := u.Add(s)
		if !errors.Is(err, ErrCharacteristic) || !strings.Contains(err.Error(), tc.name) || u.Len() != 0 {
			t.Errorf("Add with %v = %v (universe of %d), want ErrCharacteristic naming %s", tc.chars, err, u.Len(), tc.name)
		}
	}
	s := Uncooperative("s", schema.NewSchema("x"))
	s.SetCharacteristic("mttf", 1)
	s.SetCharacteristic("fees", 2)
	s.SetCharacteristic("mttf", 3)
	if v, ok := s.Characteristic("mttf"); len(s.Characteristics) != 2 || !ok || math.Float64bits(v) != math.Float64bits(3) {
		t.Errorf("SetCharacteristic twice gives %v", s.Characteristics)
	}
	mustAdd(t, NewUniverse(testCfg), s)
}

// TestCharacteristicMemoConcurrentReads: after each mutation, concurrent
// first reads race to make the universe's characteristic memo, and every
// reader gets the one memoized column of the new universe. Run it under
// -race.
func TestCharacteristicMemoConcurrentReads(t *testing.T) {
	u := NewUniverse(testCfg)
	for round := 0; round < 4; round++ {
		s := Uncooperative(fmt.Sprint("s", round), schema.NewSchema("x"))
		s.SetCharacteristic("mttf", float64(10+round))
		mustAdd(t, u, s)
		cols := make([][]float64, 8)
		var wg sync.WaitGroup
		for g := range cols {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, max, ok := u.CharacteristicRange("mttf"); !ok || math.Float64bits(max) != math.Float64bits(float64(10+round)) {
					t.Errorf("round %d: range max %v, %v", round, max, ok)
				}
				cols[g] = u.NormalizedCharacteristic("mttf")
			}()
		}
		wg.Wait()
		for g, col := range cols {
			if len(col) != u.Len() || &col[0] != &cols[0][0] {
				t.Errorf("round %d: reader %d got column %v, not the one memoized column %v", round, g, col, cols[0])
			}
		}
	}
}

func TestUnionEstimateRandomizedMatchesExact(t *testing.T) {
	// Randomized check: union estimates stay within 25% of exact distinct
	// counts for modest sets (64 bitmaps → SE ≈ 10%).
	r := rand.New(rand.NewSource(9))
	u := NewUniverse(testCfg)
	exact := make([]*pcsa.ExactCounter, 4)
	for i := 0; i < 4; i++ {
		n := 2000 + r.Intn(8000)
		tuples := make([]TupleID, n)
		exact[i] = pcsa.NewExact()
		for j := range tuples {
			x := uint64(r.Intn(20000))
			tuples[j] = x
			exact[i].AddUint64(x)
		}
		s, err := FromTuples("s", schema.NewSchema("a"), NewSliceIterator(tuples), testCfg)
		if err != nil {
			t.Fatal(err)
		}
		mustAdd(t, u, s)
	}
	all := pcsa.NewExact()
	for _, e := range exact {
		all.MergeFrom(e)
	}
	sigs := make([]*pcsa.Signature, 0, u.Len())
	for _, s := range u.Sources() {
		sigs = append(sigs, s.Signature)
	}
	un, err := pcsa.Union(sigs...)
	if err != nil {
		t.Fatal(err)
	}
	got, want := un.Estimate(), float64(all.Count())
	if math.Abs(got-want)/want > 0.25 {
		t.Errorf("union estimate %v vs exact %v", got, want)
	}
}

// mustAdd adds s to u, failing the test on any error so a bad fixture is
// loud instead of corrupting downstream assertions.
func mustAdd(t testing.TB, u *Universe, s *Source) {
	t.Helper()
	if _, err := u.Add(s); err != nil {
		t.Fatal(err)
	}
}

// rebuiltUniverse builds a from-scratch universe holding copies of u's
// current sources — the reference the incremental mutation paths must match
// bit-for-bit.
func rebuiltUniverse(t *testing.T, u *Universe) *Universe {
	t.Helper()
	nu := NewUniverse(u.SignatureConfig())
	for _, s := range u.Sources() {
		c := *s
		mustAdd(t, nu, &c)
	}
	nu.Precompute()
	return nu
}

// checkAggregates asserts u's cached aggregates equal a from-scratch
// rebuild's, exactly (even the union estimate's float must be
// bit-identical), and that
// SignatureBytes counts only the signatures u's sources still hold.
func checkAggregates(t *testing.T, u *Universe) {
	t.Helper()
	ref := rebuiltUniverse(t, u)
	if got, want := u.TotalCardinality(), ref.TotalCardinality(); got != want {
		t.Errorf("TotalCardinality = %d, rebuild says %d", got, want)
	}
	if got, want := u.UnionAllEstimate(), ref.UnionAllEstimate(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("UnionAllEstimate = %v, rebuild says %v", got, want)
	}
	live := 0
	for _, s := range u.Sources() {
		if s.Signature != nil {
			live++
		}
	}
	if got, want := u.SignatureBytes(), live*u.SignatureConfig().NumMaps*8; got != want {
		t.Errorf("SignatureBytes = %d, want %d for %d live signatures", got, want, live)
	}
}

// TestAddAfterPrecomputeRefreshesAggregates pins the invalidation contract:
// a Precompute followed by Add must not serve the stale snapshot for any of
// the three cached aggregates.
func TestAddAfterPrecomputeRefreshesAggregates(t *testing.T) {
	u := NewUniverse(testCfg)
	mustAdd(t, u, makeSource(t, "a", 0, 2000, "x"))
	u.Precompute()
	staleCard := u.TotalCardinality()
	staleUnion := u.UnionAllEstimate()
	mustAdd(t, u, makeSource(t, "b", 2000, 6000, "y"))
	if u.TotalCardinality() == staleCard {
		t.Error("TotalCardinality served stale value after Add")
	}
	if math.Float64bits(u.UnionAllEstimate()) == math.Float64bits(staleUnion) {
		t.Error("UnionAllEstimate served stale value after Add")
	}
	checkAggregates(t, u)
}

func TestRemoveCompactsIDsAndAggregates(t *testing.T) {
	u := NewUniverse(testCfg)
	for i := uint64(0); i < 8; i++ {
		mustAdd(t, u, makeSource(t, "s", i*1000, (i+1)*1000, "a", "b"))
	}
	mixed := makeSource(t, "mixed", 8000, 9000, "c")
	mixed.Cardinality = -1 // signature but no cardinality
	mustAdd(t, u, mixed)
	mustAdd(t, u, Uncooperative("dark", schema.NewSchema("d")))
	u.Precompute()

	kept, err := u.Remove([]schema.SourceID{1, 5, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	wantKept := []schema.SourceID{0, 2, 3, 4, 6, 7, 8}
	if len(kept) != len(wantKept) {
		t.Fatalf("kept = %v, want %v", kept, wantKept)
	}
	for i := range kept {
		if kept[i] != wantKept[i] {
			t.Fatalf("kept = %v, want %v", kept, wantKept)
		}
	}
	if u.Len() != 7 {
		t.Fatalf("Len = %d after Remove, want 7", u.Len())
	}
	for i, s := range u.Sources() {
		if int(s.ID) != i {
			t.Errorf("source %d has ID %d after compaction", i, s.ID)
		}
	}
	checkAggregates(t, u)

	if _, err := u.Remove([]schema.SourceID{42}); err == nil || !errors.Is(err, ErrUnknownSource) {
		t.Errorf("Remove(42) = %v, want ErrUnknownSource", err)
	}
	if kept, err := u.Remove(nil); err != nil || len(kept) != 7 {
		t.Errorf("empty Remove = (%v, %v), want identity", kept, err)
	}
}

// TestSchemaVersion pins what counts as a schema edit: every Add and every
// Remove that removes a source move the version on; a failed Add, an empty
// Remove, UpdateSynopsis and Degrade do not.
func TestSchemaVersion(t *testing.T) {
	u := NewUniverse(testCfg)
	step := func(label string, want uint64) {
		t.Helper()
		if got := u.SchemaVersion(); got != want {
			t.Errorf("%s: SchemaVersion = %d, want %d", label, got, want)
		}
	}
	step("empty", 0)
	for i := uint64(0); i < 3; i++ {
		mustAdd(t, u, makeSource(t, "s", i*100, (i+1)*100, "a"))
	}
	step("three adds", 3)
	bad := Uncooperative("bad", schema.NewSchema("a"))
	bad.SetCharacteristic("fees", -1)
	if _, err := u.Add(bad); err == nil {
		t.Fatal("Add accepted a negative characteristic")
	}
	step("failed add", 3)
	if _, err := u.Remove(nil); err != nil {
		t.Fatal(err)
	}
	step("empty remove", 3)
	drifted := makeSource(t, "s", 500, 700, "a")
	if err := u.UpdateSynopsis(1, drifted.Cardinality, drifted.Signature); err != nil {
		t.Fatal(err)
	}
	if err := u.Degrade(2); err != nil {
		t.Fatal(err)
	}
	step("synopsis updates", 3)
	if _, err := u.Remove([]schema.SourceID{0, 0}); err != nil {
		t.Fatal(err)
	}
	step("remove", 4)
}

func TestUpdateSynopsisDriftAndDegrade(t *testing.T) {
	u := NewUniverse(testCfg)
	for i := uint64(0); i < 4; i++ {
		mustAdd(t, u, makeSource(t, "s", i*5000, (i+1)*5000, "a"))
	}
	u.Precompute()

	// Drift: source 1 now exports a shifted vocabulary.
	drifted := makeSource(t, "s", 40000, 47000, "a")
	if err := u.UpdateSynopsis(1, drifted.Cardinality, drifted.Signature); err != nil {
		t.Fatal(err)
	}
	if u.Source(1).Cardinality != 7000 {
		t.Errorf("Cardinality = %d after drift, want 7000", u.Source(1).Cardinality)
	}
	checkAggregates(t, u)

	// Degrade: source 2 stops cooperating but stays selectable.
	if err := u.Degrade(2); err != nil {
		t.Fatal(err)
	}
	if u.Source(2).Cooperative() {
		t.Error("source still cooperative after Degrade")
	}
	checkAggregates(t, u)

	// Recover: it comes back with fresh synopses.
	back := makeSource(t, "s", 10000, 15000, "a")
	if err := u.UpdateSynopsis(2, back.Cardinality, back.Signature); err != nil {
		t.Fatal(err)
	}
	if !u.Source(2).Cooperative() {
		t.Error("source not cooperative after recovery")
	}
	checkAggregates(t, u)

	if err := u.UpdateSynopsis(99, 1, nil); !errors.Is(err, ErrUnknownSource) {
		t.Errorf("UpdateSynopsis(99) = %v, want ErrUnknownSource", err)
	}
	bad := makeSource(t, "bad", 0, 10, "a")
	wrong := NewUniverse(pcsa.Config{NumMaps: 128})
	mustAdd(t, wrong, Uncooperative("pad", schema.NewSchema("x")))
	if err := wrong.UpdateSynopsis(0, bad.Cardinality, bad.Signature); err != ErrSignatureConfig {
		t.Errorf("mismatched config = %v, want ErrSignatureConfig", err)
	}
}

// TestRemoveWithLanesPast255 stacks 300 sources over the same tuples, so
// every set bit is set by 300 signatures, then churns the universe: after
// each step every aggregate must match a from-scratch universe exactly.
func TestRemoveWithLanesPast255(t *testing.T) {
	u := NewUniverse(testCfg)
	for i := 0; i < 300; i++ {
		mustAdd(t, u, makeSource(t, "clone", 0, 50, "a"))
	}
	u.Precompute()
	checkAggregates(t, u)
	if _, err := u.Remove([]schema.SourceID{0, 150, 299}); err != nil {
		t.Fatal(err)
	}
	checkAggregates(t, u)
	if err := u.Degrade(7); err != nil {
		t.Fatal(err)
	}
	checkAggregates(t, u)
	mustAdd(t, u, makeSource(t, "new", 50, 200, "b"))
	u.Precompute()
	checkAggregates(t, u)
}

// TestAggregatesFollowMutations drives seeded random runs of Add, Remove,
// UpdateSynopsis and Degrade, one to three between reads, over sources that
// share signatures and sources that never cooperated. After every read
// UnionAllEstimate must be bit-equal to pcsa.Union of the live signatures
// and TotalCardinality the sum of the cooperative cardinalities, so no
// mutation may leave a stale aggregate behind.
func TestAggregatesFollowMutations(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		var made []*pcsa.Signature // earlier signatures, re-used to share one
		fresh := func() (int64, *pcsa.Signature) {
			if len(made) > 0 && r.Intn(4) == 0 {
				sig := made[r.Intn(len(made))]
				return 1 + r.Int63n(500), sig
			}
			lo := uint64(r.Intn(20000))
			s := makeSource(t, "s", lo, lo+1+uint64(r.Intn(3000)), "a")
			made = append(made, s.Signature)
			return s.Cardinality, s.Signature
		}
		u := NewUniverse(testCfg)
		for step := 0; step < 150; step++ {
			for n := 1 + r.Intn(3); n > 0; n-- {
				var err error
				switch op := r.Intn(10); {
				case op < 4 || u.Len() == 0:
					if r.Intn(5) == 0 {
						_, err = u.Add(Uncooperative("u", schema.NewSchema("a")))
					} else {
						c, sig := fresh()
						_, err = u.Add(&Source{Name: "s", Schema: schema.NewSchema("a"), Cardinality: c, Signature: sig})
					}
				case op < 6:
					drop := []schema.SourceID{schema.SourceID(r.Intn(u.Len()))}
					if r.Intn(2) == 0 {
						drop = append(drop, schema.SourceID(r.Intn(u.Len())))
					}
					_, err = u.Remove(drop)
				case op < 8:
					c, sig := fresh()
					err = u.UpdateSynopsis(schema.SourceID(r.Intn(u.Len())), c, sig)
				default:
					err = u.Degrade(schema.SourceID(r.Intn(u.Len())))
				}
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
			if r.Intn(2) == 0 {
				u.Precompute()
			}
			var live []*pcsa.Signature
			var card int64
			for _, s := range u.Sources() {
				if s.Signature != nil {
					live = append(live, s.Signature)
				}
				if s.Cardinality > 0 {
					card += s.Cardinality
				}
			}
			want := 0.0
			if len(live) > 0 {
				all, err := pcsa.Union(live...)
				if err != nil {
					t.Fatal(err)
				}
				want = all.Estimate()
			}
			if got := u.UnionAllEstimate(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d step %d: UnionAllEstimate = %v, union of %d live signatures = %v", seed, step, got, len(live), want)
			}
			if got := u.TotalCardinality(); got != card {
				t.Fatalf("seed %d step %d: TotalCardinality = %d, want %d", seed, step, got, card)
			}
		}
	}
}
