package colvec

import (
	"testing"

	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

func TestBitmap(t *testing.T) {
	var b Bitmap
	if b.Get(0) || b.Get(200) {
		t.Fatal("empty bitmap must read false")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(200)
	for _, i := range []int{0, 63, 64, 200} {
		if !b.Get(i) {
			t.Fatalf("bit %d lost", i)
		}
	}
	if b.Get(1) || b.Get(65) || b.Get(199) {
		t.Fatal("unset bits read true")
	}
	b.truncate(64)
	if b.Get(64) || b.Get(200) {
		t.Fatal("truncate(64) must clear bits >= 64")
	}
	if !b.Get(63) {
		t.Fatal("truncate(64) must keep bit 63")
	}
	b.Reset()
	if b.Get(0) || b.Get(63) {
		t.Fatal("reset must clear everything")
	}
}

func TestVecAppendAndRead(t *testing.T) {
	iv := NewVec(types.I64)
	iv.AppendI64(7)
	iv.AppendI64(-3)
	if iv.Len() != 2 || iv.Slot(0).I != 7 || iv.Slot(1).I != -3 {
		t.Fatalf("int vec roundtrip: %+v", iv)
	}

	sv := NewVec(types.Str)
	sv.AppendStrBytes([]byte("hello"))
	sv.AppendStr("")
	sv.AppendStrBytes([]byte("wörld"))
	if sv.Str(0) != "hello" || sv.Str(1) != "" || sv.Str(2) != "wörld" {
		t.Fatalf("str vec roundtrip: %q %q %q", sv.Str(0), sv.Str(1), sv.Str(2))
	}
	if string(sv.RawStr(2)) != "wörld" {
		t.Fatalf("raw str: %q", sv.RawStr(2))
	}
	// Sealed strings must survive vector reuse (Reset + refill).
	kept := sv.Str(0)
	sv.Reset()
	sv.AppendStr("XXXXXXXX")
	if kept != "hello" {
		t.Fatalf("sealed string corrupted by reuse: %q", kept)
	}
}

func TestVecNulls(t *testing.T) {
	v := NewVec(types.Option(types.I64))
	if v.Kind != types.KindI64 || !v.Nullable {
		t.Fatalf("option vec: kind=%v nullable=%v", v.Kind, v.Nullable)
	}
	v.AppendI64(1)
	v.AppendNull()
	v.AppendI64(3)
	if v.IsNull(0) || !v.IsNull(1) || v.IsNull(2) {
		t.Fatal("null bitmap wrong")
	}
	if !v.Slot(1).IsNull() || v.Slot(2).I != 3 {
		t.Fatal("null slot readback wrong")
	}

	nv := NewVec(types.Null)
	nv.AppendUnit()
	if !nv.IsNull(0) || !nv.Slot(0).IsNull() {
		t.Fatal("all-null column must read null")
	}
}

func TestVecTruncate(t *testing.T) {
	v := NewVec(types.Option(types.Str))
	v.AppendStr("aa")
	v.AppendNull()
	v.AppendStr("ccc")
	v.Truncate(2)
	if v.Len() != 2 {
		t.Fatalf("len after truncate: %d", v.Len())
	}
	v.AppendStr("dd")
	if v.Str(2) != "dd" || v.Str(0) != "aa" {
		t.Fatalf("truncate+append: %q %q", v.Str(2), v.Str(0))
	}
	if !v.IsNull(1) || v.IsNull(2) {
		t.Fatal("null bits after truncate")
	}
	// Truncating across a null must clear the bit for the re-used row.
	v.Truncate(1)
	v.AppendStr("ee")
	if v.IsNull(1) {
		t.Fatal("truncate must clear null bit of rolled-back row")
	}
}

func TestVecDenseSet(t *testing.T) {
	v := NewVec(types.Str)
	v.Grow(5)
	// Writes at selected rows only (ascending), holes untouched.
	v.SetStr(1, "one")
	v.SetStr(3, "three")
	if v.Str(1) != "one" || v.Str(3) != "three" {
		t.Fatalf("dense set: %q %q", v.Str(1), v.Str(3))
	}

	f := NewVec(types.F64)
	f.Grow(3)
	f.SetF64(2, 2.5)
	if f.Slot(2).F != 2.5 {
		t.Fatal("dense f64 set")
	}

	o := NewVec(types.Option(types.I64))
	o.Grow(4)
	o.SetI64(0, 9)
	o.SetNull(2)
	if o.IsNull(0) || !o.IsNull(2) {
		t.Fatal("dense null set")
	}
}

func TestVecSetDispatch(t *testing.T) {
	v := NewVec(types.Option(types.I64))
	v.Grow(2)
	v.Set(0, rows.I64(42))
	v.Set(1, rows.Null())
	if v.Slot(0).I != 42 || !v.Slot(1).IsNull() {
		t.Fatal("Set dispatch wrong")
	}

	esc := NewVec(types.List(types.I64))
	if esc.Kind != types.KindAny {
		t.Fatalf("list column must use the escape kind, got %v", esc.Kind)
	}
	esc.Grow(1)
	esc.Set(0, rows.List([]rows.Slot{rows.I64(1), rows.I64(2)}))
	s := esc.Slot(0)
	if s.Tag != types.KindList || len(s.Seq) != 2 {
		t.Fatalf("escape slot roundtrip: %+v", s)
	}
}

func TestBatchBridges(t *testing.T) {
	a := NewVec(types.I64)
	b := NewVec(types.Str)
	for i := 0; i < 4; i++ {
		a.AppendI64(int64(i * 10))
		b.AppendStr(string(rune('a' + i)))
	}
	batch := &Batch{Cols: []*Vec{a, b}, N: 4}

	sel := []int32{0, 2, 3}
	got := batch.GatherRows(sel)
	if len(got) != 3 || got[1][0].I != 20 || got[2][1].S != "d" {
		t.Fatalf("GatherRows: %+v", got)
	}
	// Bulk backing must still give independent rows.
	got[0][0] = rows.I64(999)
	if got[1][0].I != 20 {
		t.Fatal("gathered rows alias each other")
	}

	if v := batch.BoxValue(1, 1); pyvalue.ToStr(v) != "b" {
		t.Fatalf("BoxValue: %v", v)
	}
}

func TestVecReuseAcrossBatches(t *testing.T) {
	v := NewVec(types.Option(types.Str))
	v.AppendStr("x")
	v.AppendNull()
	v.Reset()
	if v.Len() != 0 {
		t.Fatal("reset length")
	}
	v.AppendStr("fresh")
	if v.IsNull(0) {
		t.Fatal("null bit leaked across reset")
	}
	if v.Str(0) != "fresh" {
		t.Fatalf("reuse read: %q", v.Str(0))
	}
}

func TestSealedStringsSurviveBufferReuse(t *testing.T) {
	// Seal returns aliasing views of the bytes buffer; Reset must donate
	// an aliased buffer to its strings rather than rewrite it in place.
	v := NewVec(types.Str)
	v.AppendStr("alpha")
	v.AppendStr("beta")
	a, b := v.Str(0), v.Str(1)
	v.Reset()
	v.AppendStr("XXXXXXXXXX") // would overwrite "alphabeta" if shared
	if a != "alpha" || b != "beta" {
		t.Fatalf("sealed strings corrupted by reuse: %q, %q", a, b)
	}
	if v.Str(0) != "XXXXXXXXXX" {
		t.Fatalf("post-reset read: %q", v.Str(0))
	}
}

func TestSealAfterAppendExtends(t *testing.T) {
	// Appends after a seal must be visible through a re-seal while the
	// earlier view stays intact.
	v := NewVec(types.Str)
	v.AppendStr("one")
	first := v.Str(0)
	v.AppendStr("two")
	if v.Str(1) != "two" || first != "one" {
		t.Fatalf("re-seal views: %q, %q", first, v.Str(1))
	}
	// Unsealed batches (no string reads) keep reusing their buffer.
	w := NewVec(types.Str)
	w.AppendStr("abc")
	before := cap(w.Bytes)
	w.Reset()
	if cap(w.Bytes) != before {
		t.Fatal("unsealed reset should keep the buffer")
	}
}
