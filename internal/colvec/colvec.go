// Package colvec implements the columnar batch representation of the
// normal-case data plane: Arrow-style column vectors with typed Go
// slices per column, null bitmaps, and offset+bytes string storage.
//
// A Vec holds one column of a batch with *dense absolute indexing*:
// every vector in a batch has the batch's full row count, and a
// selection vector (a []int32 of surviving row indices) tracks which
// rows are still live. Filters shrink the selection instead of copying
// columns; derived columns (withColumn/map kernels) are written only at
// selected positions, leaving holes that are never read. This is the Go
// analog of Tuplex's flat-tuple normal-case memory layout, batched: the
// CSV chunk parser appends one cell per column per row with zero
// per-cell boxing, and batch UDF kernels loop over vectors a chunk at a
// time.
//
// String cells live as offset+length pairs into a shared Bytes buffer.
// Reading a cell as a Go string goes through Seal(), which takes an
// immutable aliasing view of the buffer (no copy); individual cells are
// then substrings of that view. Rendering a cell to CSV reads the raw
// bytes and never seals.
package colvec

import (
	"unsafe"

	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

// Bitmap is a dense bit set marking null rows of one vector.
type Bitmap []uint64

// Set marks bit i (growing the bitmap as needed).
func (b *Bitmap) Set(i int) {
	w := i >> 6
	for w >= len(*b) {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(i) & 63)
}

// Get reports bit i.
func (b Bitmap) Get(i int) bool {
	w := i >> 6
	if w >= len(b) {
		return false
	}
	return b[w]&(1<<(uint(i)&63)) != 0
}

// Reset clears all bits, keeping capacity.
func (b *Bitmap) Reset() {
	for i := range *b {
		(*b)[i] = 0
	}
}

// truncate clears bits at positions >= n.
func (b Bitmap) truncate(n int) {
	w := n >> 6
	if w >= len(b) {
		return
	}
	b[w] &= (1 << (uint(n) & 63)) - 1
	for i := w + 1; i < len(b); i++ {
		b[i] = 0
	}
}

// Vec is one column vector. Exactly one payload family is in use,
// selected by Kind (the unwrapped value kind of the column):
//
//   - KindBool → B
//   - KindI64  → I
//   - KindF64  → F
//   - KindStr  → Off/SLen into Bytes
//   - KindNull → no payload (all-null column)
//   - anything else → Slots (boxed escape hatch: lists, tuples, dicts)
//
// Nulls, when non-nil bits are set, marks rows whose payload slot is
// meaningless (Option columns). All payload slices are indexed by
// absolute batch row position.
type Vec struct {
	Kind types.Kind
	// Nullable records that the column's static type admits nulls; the
	// bitmap is consulted only when Nullable is true.
	Nullable bool
	Nulls    Bitmap

	n int // logical length

	B     []bool
	I     []int64
	F     []float64
	Off   []uint32
	SLen  []uint32
	Bytes []byte
	Slots []rows.Slot

	// sealed is the immutable string view of Bytes[:sealLen]; cells read
	// as Go strings substring it. The view aliases Bytes without
	// copying: appends past sealLen never rewrite sealed bytes, and
	// Reset donates an aliased buffer to its strings (the vector takes a
	// fresh one) instead of rewriting it.
	sealed  string
	sealLen int
	donated bool
}

// NewVec returns a vector for the given column type (Option unwraps to
// its element with Nullable set) with capacity hints applied lazily by
// append growth.
func NewVec(t types.Type) *Vec {
	v := &Vec{}
	v.Retype(t)
	return v
}

// Retype resets the vector for a (possibly different) column type.
func (v *Vec) Retype(t types.Type) {
	k := t.Kind()
	nullable := false
	if k == types.KindOption {
		nullable = true
		k = t.Elem().Kind()
	}
	switch k {
	case types.KindBool, types.KindI64, types.KindF64, types.KindStr, types.KindNull:
	default:
		k = types.KindAny // boxed escape hatch
	}
	v.Kind = k
	v.Nullable = nullable
	v.Reset()
}

// Len reports the logical row count.
func (v *Vec) Len() int { return v.n }

// Reset empties the vector, keeping capacity for reuse across batches.
func (v *Vec) Reset() {
	v.n = 0
	v.B = v.B[:0]
	v.I = v.I[:0]
	v.F = v.F[:0]
	v.Off = v.Off[:0]
	v.SLen = v.SLen[:0]
	if v.donated {
		// Sealed strings from the previous batch alias this buffer;
		// rewriting it from offset 0 would corrupt them. Leave it to
		// them and start fresh at the same capacity.
		v.Bytes = make([]byte, 0, cap(v.Bytes))
		v.donated = false
	} else {
		v.Bytes = v.Bytes[:0]
	}
	v.Slots = v.Slots[:0]
	v.Nulls.Reset()
	v.sealed = ""
	v.sealLen = 0
}

// Grow extends the vector's payload storage to length n (dense derived
// columns write at absolute positions; holes stay zero and unread).
func (v *Vec) Grow(n int) {
	v.n = n
	switch v.Kind {
	case types.KindBool:
		v.B = growTo(v.B, n)
	case types.KindI64:
		v.I = growTo(v.I, n)
	case types.KindF64:
		v.F = growTo(v.F, n)
	case types.KindStr:
		v.Off = growTo(v.Off, n)
		v.SLen = growTo(v.SLen, n)
	case types.KindNull:
	default:
		v.Slots = growTo(v.Slots, n)
	}
}

func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		ns := make([]T, n)
		copy(ns, s[:len(s)])
		return ns
	}
	s = s[:n]
	return s
}

// Truncate rolls the vector back to n rows (parser rollback after a
// rejected record).
func (v *Vec) Truncate(n int) {
	if n >= v.n {
		return
	}
	v.n = n
	switch v.Kind {
	case types.KindBool:
		v.B = v.B[:n]
	case types.KindI64:
		v.I = v.I[:n]
	case types.KindF64:
		v.F = v.F[:n]
	case types.KindStr:
		if len(v.Off) > n {
			v.Bytes = v.Bytes[:v.Off[n]]
		}
		v.Off = v.Off[:n]
		v.SLen = v.SLen[:n]
	case types.KindNull:
	default:
		v.Slots = v.Slots[:n]
	}
	v.Nulls.truncate(n)
}

// ---- Append building (source parse: rows arrive in order) ----

// AppendNull appends a null cell (payload slot zeroed).
func (v *Vec) AppendNull() {
	v.Nulls.Set(v.n)
	v.Nullable = true
	switch v.Kind {
	case types.KindBool:
		v.B = append(v.B, false)
	case types.KindI64:
		v.I = append(v.I, 0)
	case types.KindF64:
		v.F = append(v.F, 0)
	case types.KindStr:
		v.Off = append(v.Off, uint32(len(v.Bytes)))
		v.SLen = append(v.SLen, 0)
	case types.KindNull:
	default:
		v.Slots = append(v.Slots, rows.Null())
	}
	v.n++
}

// AppendBool appends a bool cell.
func (v *Vec) AppendBool(b bool) {
	v.B = append(v.B, b)
	v.n++
}

// AppendI64 appends an integer cell.
func (v *Vec) AppendI64(x int64) {
	v.I = append(v.I, x)
	v.n++
}

// AppendF64 appends a float cell.
func (v *Vec) AppendF64(f float64) {
	v.F = append(v.F, f)
	v.n++
}

// AppendStrBytes appends a string cell by copying raw bytes into the
// shared buffer — the zero-boxing parse path.
func (v *Vec) AppendStrBytes(b []byte) {
	v.Off = append(v.Off, uint32(len(v.Bytes)))
	v.SLen = append(v.SLen, uint32(len(b)))
	v.Bytes = append(v.Bytes, b...)
	v.n++
}

// AppendStr appends a string cell from a Go string.
func (v *Vec) AppendStr(s string) {
	v.Off = append(v.Off, uint32(len(v.Bytes)))
	v.SLen = append(v.SLen, uint32(len(s)))
	v.Bytes = append(v.Bytes, s...)
	v.n++
}

// AppendUnit appends a cell to a no-payload (all-null kind) vector.
func (v *Vec) AppendUnit() { v.n++ }

// AppendSlot appends an arbitrary slot cell, dispatching on the vector
// kind (the slot-source ingest and join-gather paths; the engine only
// routes type-conforming slots here, everything else goes through the
// escape column).
func (v *Vec) AppendSlot(s rows.Slot) {
	if s.Tag == types.KindNull {
		v.AppendNull()
		return
	}
	switch v.Kind {
	case types.KindBool:
		v.AppendBool(s.B)
	case types.KindI64:
		v.AppendI64(s.I)
	case types.KindF64:
		v.AppendF64(s.F)
	case types.KindStr:
		v.AppendStr(s.S)
	case types.KindNull:
		v.AppendUnit()
	default:
		v.Slots = append(v.Slots, s)
		v.n++
	}
}

// AppendFrom appends cell i of src — the vector-to-vector gather used by
// the join kernel. Same-kind cells copy typed payloads directly (string
// bytes move buffer-to-buffer without materializing a Go string); a kind
// mismatch falls back to the slot path.
func (v *Vec) AppendFrom(src *Vec, i int) {
	if src.IsNull(i) {
		v.AppendNull()
		return
	}
	if v.Kind == src.Kind {
		switch v.Kind {
		case types.KindBool:
			v.AppendBool(src.B[i])
		case types.KindI64:
			v.AppendI64(src.I[i])
		case types.KindF64:
			v.AppendF64(src.F[i])
		case types.KindStr:
			v.AppendStrBytes(src.RawStr(i))
		case types.KindNull:
			v.AppendUnit()
		default:
			v.Slots = append(v.Slots, src.Slots[i])
			v.n++
		}
		return
	}
	v.AppendSlot(src.Slot(i))
}

// ---- Dense absolute writes (derived kernel outputs) ----

// SetNull marks row i null.
func (v *Vec) SetNull(i int) {
	v.Nullable = true
	v.Nulls.Set(i)
}

// SetBool writes a bool at row i.
func (v *Vec) SetBool(i int, b bool) { v.B[i] = b }

// SetI64 writes an integer at row i.
func (v *Vec) SetI64(i int, x int64) { v.I[i] = x }

// SetF64 writes a float at row i.
func (v *Vec) SetF64(i int, f float64) { v.F[i] = f }

// SetStr writes a string at row i. Bytes append in write order; rows
// must be written in ascending order within a batch (kernels iterate
// the selection vector, which is ascending).
func (v *Vec) SetStr(i int, s string) {
	v.Off[i] = uint32(len(v.Bytes))
	v.SLen[i] = uint32(len(s))
	v.Bytes = append(v.Bytes, s...)
}

// SetSlot writes an escape-hatch boxed slot at row i.
func (v *Vec) SetSlot(i int, s rows.Slot) { v.Slots[i] = s }

// ---- Reading ----

// IsNull reports whether row i is null.
func (v *Vec) IsNull(i int) bool {
	return v.Kind == types.KindNull || (v.Nullable && v.Nulls.Get(i))
}

// AllValid reports that no row of the vector is null, scanning the
// bitmap a word at a time. Batch kernels consult it once per batch to
// dispatch to inner-loop variants with the per-cell null check elided.
func (v *Vec) AllValid() bool {
	if v.Kind == types.KindNull {
		return false
	}
	if !v.Nullable {
		return true
	}
	words := (v.n + 63) >> 6
	if words > len(v.Nulls) {
		words = len(v.Nulls)
	}
	for _, w := range v.Nulls[:words] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Seal refreshes the immutable string view of the bytes buffer. The
// view aliases the buffer — no copy, no allocation. Safe because the
// buffer is append-only within a batch (later appends either extend
// past sealLen or relocate the array, leaving sealed bytes untouched),
// and Reset hands an aliased buffer over to its strings for good.
func (v *Vec) Seal() {
	if v.sealLen != len(v.Bytes) {
		v.sealed = unsafe.String(&v.Bytes[0], len(v.Bytes))
		v.sealLen = len(v.Bytes)
		v.donated = true
	}
}

// Str returns row i as a Go string (substring of the sealed buffer — no
// per-cell allocation).
func (v *Vec) Str(i int) string {
	v.Seal()
	off := v.Off[i]
	return v.sealed[off : off+v.SLen[i]]
}

// RawStr returns row i's string bytes without sealing (CSV rendering).
func (v *Vec) RawStr(i int) []byte {
	off := v.Off[i]
	return v.Bytes[off : off+v.SLen[i]]
}

// Slot returns row i as an unboxed slot (strings via the sealed view).
func (v *Vec) Slot(i int) rows.Slot {
	if v.IsNull(i) {
		return rows.Null()
	}
	switch v.Kind {
	case types.KindBool:
		return rows.Bool(v.B[i])
	case types.KindI64:
		return rows.I64(v.I[i])
	case types.KindF64:
		return rows.F64(v.F[i])
	case types.KindStr:
		return rows.Str(v.Str(i))
	case types.KindNull:
		return rows.Null()
	default:
		return v.Slots[i]
	}
}

// Set writes an arbitrary slot at row i, dispatching on the vector
// kind. A null slot sets the bitmap; a slot whose tag does not match a
// typed payload falls back to the escape column only when the vector is
// an escape vector — otherwise it is a programming error caught by the
// differential suites (the engine only routes type-conforming results
// here).
func (v *Vec) Set(i int, s rows.Slot) {
	if s.Tag == types.KindNull {
		if v.Kind != types.KindNull {
			v.SetNull(i)
		}
		return
	}
	switch v.Kind {
	case types.KindBool:
		v.SetBool(i, s.B)
	case types.KindI64:
		v.SetI64(i, s.I)
	case types.KindF64:
		v.SetF64(i, s.F)
	case types.KindStr:
		v.SetStr(i, s.S)
	case types.KindNull:
	default:
		v.SetSlot(i, s)
	}
}

// Batch is one chunk's worth of rows in columnar form.
type Batch struct {
	Cols []*Vec
	// N is the batch row count (every vector's dense length).
	N int
}

// Slot returns cell (row, col) as an unboxed slot.
func (b *Batch) Slot(row, col int) rows.Slot { return b.Cols[col].Slot(row) }

// GatherRows materializes the selected rows as []rows.Row with a single
// bulk backing allocation (the columnar collect/materialize terminal).
// Strings are substrings of each column's sealed buffer.
func (b *Batch) GatherRows(sel []int32) []rows.Row {
	nc := len(b.Cols)
	backing := make([]rows.Slot, len(sel)*nc)
	out := make([]rows.Row, len(sel))
	for oi, ri := range sel {
		row := backing[oi*nc : (oi+1)*nc : (oi+1)*nc]
		for c, v := range b.Cols {
			row[c] = v.Slot(int(ri))
		}
		out[oi] = row
	}
	return out
}

// BoxValue boxes cell (row, col) for the boxed paths.
func (b *Batch) BoxValue(row, col int) pyvalue.Value {
	return b.Cols[col].Slot(row).Value()
}
