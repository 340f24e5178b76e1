// Package plancheck is a sample-free static verifier for pipeline
// specs: an abstract interpreter that walks the full operator DAG of a
// decoded spec.Pipeline — source, every operator (join build sides
// included) and the sink — propagating per-column abstract schemas
// (column name sets plus internal/types lattice types seeded at ⊤
// instead of sample statistics) and reusing the internal/dataflow
// transfer functions over each UDF's typed AST.
//
// Where the engine's dual-mode compiler proves per-UDF facts from a
// data sample at run time, plancheck proves whole-plan facts from the
// spec alone: no input is read beyond a bounded CSV header peek, no UDF
// is compiled and nothing executes. That makes it cheap enough to run
// on every service submission (fail-fast admission), at DataSet
// construction, and in CI over spec corpora.
//
// Diagnostics carry stable TPX0xx codes and are severity-graded:
// errors are defects that would fail compilation or execution
// deterministically (undefined column, incompatible join keys,
// malformed spec), warnings are provable logic defects that execute but
// almost certainly do not mean what the author intended (always-raising
// UDF, dead resolver, constant filter, dead column write), and infos
// are no-ops worth knowing about. Because type seeding starts at ⊤,
// every fact the checker derives is sound for all inputs: plancheck
// never reports a false undefined column or a false dead write on a
// plan the engine would accept.
package plancheck

import (
	"fmt"
	"sort"

	"github.com/gotuplex/tuplex/internal/spec"
	"github.com/gotuplex/tuplex/internal/types"
)

// Severity grades a diagnostic. The service rejects submissions only on
// SevError; warnings and infos flow back to the client but do not block
// admission.
type Severity string

const (
	SevError   Severity = "error"
	SevWarning Severity = "warning"
	SevInfo    Severity = "info"
)

// Stable diagnostic codes. Codes are part of the wire contract: tests,
// clients and CI gates match on them, so they never change meaning.
const (
	// CodeDecode marks a spec that failed strict decoding (unknown
	// field, unknown kind, bad version). Emitted by the service layer
	// from spec.DecodeError; Check itself never sees undecodable input.
	CodeDecode = "TPX000"
	// CodeUndefinedColumn: an operator references a column that does not
	// exist in its input schema.
	CodeUndefinedColumn = "TPX001"
	// CodeJoinKeyMismatch: the probe and build key columns have types
	// that cannot unify (e.g. str vs i64) — the join can never match.
	CodeJoinKeyMismatch = "TPX002"
	// CodeAlwaysRaises: a UDF expression provably raises every time it
	// is evaluated (e.g. a constant 1/0).
	CodeAlwaysRaises = "TPX003"
	// CodeDeadResolver: a resolve()/ignore() names an exception the
	// preceding UDF provably cannot raise.
	CodeDeadResolver = "TPX004"
	// CodeConstantFilter: a filter condition is constantly true (no-op)
	// or constantly false (drops every row).
	CodeConstantFilter = "TPX005"
	// CodeDeadWrite: a column is written but never read before a sink
	// (overwritten, dropped by a projection, or shadowed by a map).
	CodeDeadWrite = "TPX006"
	// CodeOrphanResolver: a resolve()/ignore() has no preceding UDF
	// operator to attach to — compilation rejects the plan.
	CodeOrphanResolver = "TPX007"
	// CodeNoopOperator: an operator that provably does nothing
	// (identity selectColumns, renameColumn to the same name).
	CodeNoopOperator = "TPX008"
	// CodeNoopOption: an option or sink configuration with no effect
	// (chunk_size with streaming disabled, take(0)).
	CodeNoopOption = "TPX009"
	// CodeMalformedSpec: a structural defect Build would reject (missing
	// udf/col/keys, unknown kind, unparsable UDF, bad sink).
	CodeMalformedSpec = "TPX010"
	// CodeUnknownSchema: the source's column set cannot be determined
	// statically (unreadable path, headerless CSV without columns);
	// downstream column checks are suppressed rather than guessed.
	CodeUnknownSchema = "TPX011"
)

// Diagnostic is one finding, attributed to a spec location (op path)
// and, for UDF-level findings, a line:col position inside the UDF
// source.
type Diagnostic struct {
	// Code is the stable TPX0xx identifier.
	Code string `json:"code"`
	// Severity is error, warning or info.
	Severity Severity `json:"severity"`
	// Op locates the finding in the spec: "source", "ops[2]",
	// "ops[1].build.ops[0]", "sink" or "options".
	Op string `json:"op,omitempty"`
	// Kind is the operator/source/sink kind at Op, when applicable.
	Kind string `json:"kind,omitempty"`
	// Pos is the line:col inside the UDF source for UDF-level findings.
	Pos string `json:"pos,omitempty"`
	// Msg is the human-readable description.
	Msg string `json:"msg"`

	ord int // document order for stable sorting
}

func (d Diagnostic) String() string {
	loc := d.Op
	if d.Pos != "" {
		loc += " @" + d.Pos
	}
	if loc != "" {
		loc = " " + loc
	}
	return fmt.Sprintf("%s %s%s: %s", d.Code, d.Severity, loc, d.Msg)
}

// HasErrors reports whether any diagnostic is SevError — the admission
// gate's question.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}

// Check statically verifies a decoded pipeline and returns every
// diagnostic, sorted by spec position. A nil/empty result means the
// plan is clean: it will not fail compilation with a schema error, and
// no provable logic defect was found.
func Check(p *spec.Pipeline) []Diagnostic {
	c := &checker{}
	if p == nil {
		c.add(Diagnostic{Code: CodeMalformedSpec, Severity: SevError, Msg: "nil pipeline"})
		return c.diags
	}
	c.pipeline(p, "", true)
	sort.SliceStable(c.diags, func(i, j int) bool {
		if c.diags[i].ord != c.diags[j].ord {
			return c.diags[i].ord < c.diags[j].ord
		}
		return c.diags[i].Code < c.diags[j].Code
	})
	return c.diags
}

// checker accumulates diagnostics across the walk. ord stamps document
// order so liveness findings (computed in a second, backward pass)
// still sort to their op's position.
type checker struct {
	diags []Diagnostic
	ord   int
}

func (c *checker) add(d Diagnostic) {
	d.ord = c.ord
	c.diags = append(c.diags, d)
}

// addf is the common emit path: code+severity at an op path.
func (c *checker) addf(code string, sev Severity, op, kind, pos, format string, args ...any) {
	c.add(Diagnostic{Code: code, Severity: sev, Op: op, Kind: kind, Pos: pos,
		Msg: fmt.Sprintf(format, args...)})
}

// pipeline walks one chain (the top-level pipeline or a join build
// side) and returns its output abstract schema. top gates sink and
// options checks, which nested build pipelines do not have.
func (c *checker) pipeline(p *spec.Pipeline, prefix string, top bool) absSchema {
	c.ord++
	cur := c.sourceSchema(&p.Source, prefix+"source")

	var events []liveEvent
	// lastUDF carries the most recent map/filter/withColumn/mapColumn
	// analysis for resolver attachment, mirroring the engine's lastUDF
	// (which intervening rename/select/join ops do not reset).
	var lastUDF *udfResult
	var lastUDFIn absSchema
	sawUDFOp := false

	for i := range p.Ops {
		op := &p.Ops[i]
		c.ord++
		path := fmt.Sprintf("%sops[%d]", prefix, i)
		ev := liveEvent{path: path, kind: op.Kind, ord: c.ord, inNames: cur.names()}

		switch op.Kind {
		case "map":
			u := c.requireUDF(op, cur, path)
			if u != nil && u.spec != nil {
				c.checkRowAccess(u, cur, path, op.Kind)
			}
			lastUDF, lastUDFIn, sawUDFOp = u, cur, true
			ev.reads, ev.readsAll = udfReads(u, cur)
			cur = c.mapOutputSchema(u, cur)

		case "filter":
			u := c.requireUDF(op, cur, path)
			if u != nil && u.spec != nil {
				c.checkRowAccess(u, cur, path, op.Kind)
				c.checkConstantFilter(u, path)
			}
			lastUDF, lastUDFIn, sawUDFOp = u, cur, true
			ev.reads, ev.readsAll = udfReads(u, cur)

		case "withColumn":
			u := c.requireUDF(op, cur, path)
			if op.Col == "" {
				c.addf(CodeMalformedSpec, SevError, path, op.Kind, "", "withColumn needs col")
			}
			if u != nil && u.spec != nil {
				c.checkRowAccess(u, cur, path, op.Kind)
			}
			lastUDF, lastUDFIn, sawUDFOp = u, cur, true
			ev.col = op.Col
			ev.reads, ev.readsAll = udfReads(u, cur)
			if !cur.open && op.Col != "" {
				cur = closedSchema(cur.sch.WithColumn(op.Col, returnType(u)))
			}

		case "mapColumn":
			if op.Col == "" {
				c.addf(CodeMalformedSpec, SevError, path, op.Kind, "", "mapColumn needs col")
			}
			colT := types.Any
			colKnown := false
			if !cur.open && op.Col != "" {
				if idx, ok := cur.sch.Lookup(op.Col); ok {
					colT, colKnown = cur.sch.Col(idx).Type, true
				} else {
					c.addf(CodeUndefinedColumn, SevError, path, op.Kind, "",
						"mapColumn: no column %q in %s", op.Col, cur.sch)
				}
			}
			var u *udfResult
			if op.UDF == nil {
				c.addf(CodeMalformedSpec, SevError, path, op.Kind, "", "mapColumn needs a udf")
			} else {
				u = c.analyzeScalarUDF(op.UDF, colT, path, op.Kind)
			}
			lastUDF, lastUDFIn, sawUDFOp = u, cur, true
			if cur.open || colKnown {
				// Only record the write when the target exists; a missing
				// column already got TPX001 and a dead-write report on top
				// would be cascade noise.
				ev.col = op.Col
				ev.reads = []string{op.Col}
			}
			if colKnown {
				cur = closedSchema(cur.sch.WithColumn(op.Col, returnType(u)))
			}

		case "renameColumn":
			if op.Old == "" || op.New == "" {
				c.addf(CodeMalformedSpec, SevError, path, op.Kind, "", "renameColumn needs old and new")
				break
			}
			if op.Old == op.New {
				c.addf(CodeNoopOperator, SevInfo, path, op.Kind, "",
					"renaming column %q to itself is a no-op", op.Old)
			}
			ev.col, ev.renamedTo = op.Old, op.New
			if !cur.open {
				ns, err := cur.sch.Rename(op.Old, op.New)
				if err != nil {
					c.addf(CodeUndefinedColumn, SevError, path, op.Kind, "",
						"renameColumn: no column %q in %s", op.Old, cur.sch)
				} else {
					cur = closedSchema(ns)
				}
			}

		case "selectColumns":
			if len(op.Cols) == 0 {
				c.addf(CodeMalformedSpec, SevError, path, op.Kind, "", "selectColumns needs cols")
				break
			}
			ev.sel = op.Cols
			if !cur.open {
				missing := false
				var kept []types.Column
				for _, name := range op.Cols {
					if idx, ok := cur.sch.Lookup(name); ok {
						kept = append(kept, cur.sch.Col(idx))
					} else {
						missing = true
						c.addf(CodeUndefinedColumn, SevError, path, op.Kind, "",
							"selectColumns: no column %q in %s", name, cur.sch)
					}
				}
				if !missing && identitySelect(op.Cols, cur.sch) {
					c.addf(CodeNoopOperator, SevInfo, path, op.Kind, "",
						"selectColumns keeps every column in its current order; the projection is a no-op")
				}
				cur = closedSchema(types.NewSchema(kept))
			}

		case "resolve", "ignore":
			if !sawUDFOp {
				c.addf(CodeOrphanResolver, SevError, path, op.Kind, "",
					"%s() without a preceding UDF operator (map/filter/withColumn/mapColumn) to attach to", op.Kind)
			}
			exc, excOK := spec.ExcKindFor(op.Exc)
			if !excOK {
				c.addf(CodeMalformedSpec, SevError, path, op.Kind, "",
					"unknown exception class %q", op.Exc)
			}
			if op.Kind == "resolve" {
				if op.UDF == nil {
					c.addf(CodeMalformedSpec, SevError, path, op.Kind, "", "resolve needs a udf")
				} else if u := c.parseUDF(op.UDF, path, op.Kind); u != nil {
					// The resolver re-runs over the failing op's input row.
					c.checkRowAccess(u, lastUDFIn, path, op.Kind)
					ev.reads, ev.readsAll = udfReads(u, lastUDFIn)
				}
			}
			if excOK && sawUDFOp && lastUDF != nil && lastUDF.clean() &&
				!lastUDF.flow.MayRaise(exc) {
				c.addf(CodeDeadResolver, SevWarning, path, op.Kind, "",
					"%s(%s): the preceding UDF provably cannot raise %s; the handler is dead",
					op.Kind, op.Exc, op.Exc)
			}

		case "join":
			buildSchema := absSchema{open: true}
			if op.Build == nil {
				c.addf(CodeMalformedSpec, SevError, path, op.Kind, "", "join needs a build pipeline")
			} else {
				buildSchema = c.pipeline(op.Build, path+".build.", false)
			}
			if op.LeftKey == "" || op.RightKey == "" {
				c.addf(CodeMalformedSpec, SevError, path, op.Kind, "", "join needs left_key and right_key")
				cur = absSchema{open: true}
				break
			}
			lt, ltOK := cur.colType(op.LeftKey)
			if !cur.open && !ltOK {
				c.addf(CodeUndefinedColumn, SevError, path, op.Kind, "",
					"join: no probe-side column %q in %s", op.LeftKey, cur.sch)
			}
			rt, rtOK := buildSchema.colType(op.RightKey)
			if !buildSchema.open && !rtOK {
				c.addf(CodeUndefinedColumn, SevError, path, op.Kind, "",
					"join: build side has no column %q in %s", op.RightKey, buildSchema.sch)
			}
			if ltOK && rtOK {
				lk, rk := lt.Unwrap(), rt.Unwrap()
				if lk.IsValid() && rk.IsValid() &&
					lk.Kind() != types.KindAny && rk.Kind() != types.KindAny &&
					lk.Kind() != types.KindNull && rk.Kind() != types.KindNull &&
					types.Unify(lk, rk).Kind() == types.KindAny {
					c.addf(CodeJoinKeyMismatch, SevError, path, op.Kind, "",
						"join keys can never match: probe %q is %s, build %q is %s",
						op.LeftKey, lt, op.RightKey, rt)
				}
			}
			cur = joinSchema(cur, buildSchema, op)

		case "aggregate":
			if op.Agg == nil || op.Comb == nil {
				c.addf(CodeMalformedSpec, SevError, path, op.Kind, "", "aggregate needs agg and comb UDFs")
			} else {
				c.checkAggregate(op.Agg, op.Comb, op.Initial, cur, path, op.Kind)
			}
			// Everything folds into the accumulator; nothing schema-like
			// survives for downstream ops.
			cur = absSchema{open: true}

		case "unique", "cache":
			// Schema unchanged.

		default:
			c.addf(CodeMalformedSpec, SevError, path, op.Kind, "",
				"unknown op kind %q", op.Kind)
			cur = absSchema{open: true}
		}
		events = append(events, ev)
	}

	if top {
		c.checkSink(p, cur, prefix)
		c.checkOptions(p, prefix)
	}
	c.deadWrites(events, cur, p, top)
	return cur
}

// identitySelect reports whether cols is exactly the schema's column
// list in order — a projection that does nothing.
func identitySelect(cols []string, sch *types.Schema) bool {
	if len(cols) != sch.Len() {
		return false
	}
	for i, name := range cols {
		if sch.Col(i).Name != name {
			return false
		}
	}
	return true
}

// checkSink validates the terminal action and analyzes aggregate-sink
// UDFs.
func (c *checker) checkSink(p *spec.Pipeline, cur absSchema, prefix string) {
	c.ord++
	path := prefix + "sink"
	switch p.Sink.Kind {
	case "", "collect", "csv":
	case "take":
		if p.Sink.N < 0 {
			c.addf(CodeMalformedSpec, SevError, path, "take", "",
				"take sink needs n >= 0, got %d", p.Sink.N)
		} else if p.Sink.N == 0 {
			c.addf(CodeNoopOption, SevInfo, path, "take", "",
				"take(0) returns no rows; the whole pipeline's output is discarded")
		}
	case "aggregate":
		if p.Sink.Agg == nil || p.Sink.Comb == nil {
			c.addf(CodeMalformedSpec, SevError, path, "aggregate", "",
				"aggregate sink needs both agg and comb UDFs")
			return
		}
		c.checkAggregate(p.Sink.Agg, p.Sink.Comb, p.Sink.Initial, cur, path, "aggregate")
	default:
		c.addf(CodeMalformedSpec, SevError, path, p.Sink.Kind, "",
			"unknown sink kind %q", p.Sink.Kind)
	}
}

// checkOptions flags option combinations that provably do nothing.
func (c *checker) checkOptions(p *spec.Pipeline, prefix string) {
	o := p.Options
	if o == nil {
		return
	}
	c.ord++
	path := prefix + "options"
	if o.ChunkSize > 0 && o.Streaming != nil && !*o.Streaming {
		c.addf(CodeNoopOption, SevInfo, path, "", "",
			"chunk_size=%d has no effect with streaming disabled", o.ChunkSize)
	}
	if o.Columnar != nil {
		c.addf(CodeNoopOption, SevInfo, path, "", "",
			"columnar=%v has no effect: every stage runs on the columnar batch plane", *o.Columnar)
	}
	if o.SampleSize > 0 && o.SampleSize < 2 {
		c.addf(CodeNoopOption, SevInfo, path, "", "",
			"sample_size=%d gives the sampler a single row; normal-case inference degenerates", o.SampleSize)
	}
}
