package tuplex

import (
	"reflect"
	"strings"
	"testing"
)

// TestPublicAPISurfaceNamesNoInternalType walks every type reachable
// through the package's exported structs and methods and asserts none of
// them lives under internal/... — external modules must be able to name
// everything the API hands back.
func TestPublicAPISurfaceNamesNoInternalType(t *testing.T) {
	roots := []any{
		Context{}, DataSet{}, Result{}, Row{}, FailedRow{},
		Metrics{}, RowCounts{}, PhaseTimings{}, IngestMetrics{},
		JoinMetrics{}, StageMetrics{},
		Trace{}, Span{}, TraceAttr{}, TaskTiming{}, OpRouting{}, ExceptionSample{},
		TraceLevel(0), ExcKind(0), UDFDef{},
		Option{}, CSVOption{}, TextOption{},
		Plan{}, Client{}, Job{}, JobResult{}, ServiceError{},
	}
	seen := map[reflect.Type]bool{}
	var visit func(rt reflect.Type, path string)
	visit = func(rt reflect.Type, path string) {
		if rt == nil || seen[rt] {
			return
		}
		seen[rt] = true
		if pkg := rt.PkgPath(); strings.Contains(pkg, "/internal/") || strings.HasSuffix(pkg, "/internal") {
			t.Errorf("%s leaks internal type %v (from %s)", path, rt, pkg)
			return
		}
		switch rt.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			visit(rt.Elem(), path+"/elem")
		case reflect.Map:
			visit(rt.Key(), path+"/key")
			visit(rt.Elem(), path+"/elem")
		case reflect.Struct:
			for i := 0; i < rt.NumField(); i++ {
				f := rt.Field(i)
				if !f.IsExported() {
					continue // unexported fields are implementation detail
				}
				visit(f.Type, path+"."+f.Name)
			}
		case reflect.Func:
			for i := 0; i < rt.NumIn(); i++ {
				visit(rt.In(i), path+"/in")
			}
			for i := 0; i < rt.NumOut(); i++ {
				visit(rt.Out(i), path+"/out")
			}
		}
		// Exported methods (on T and *T) are part of the surface too.
		for _, mt := range []reflect.Type{rt, reflect.PointerTo(rt)} {
			for i := 0; i < mt.NumMethod(); i++ {
				m := mt.Method(i)
				if m.IsExported() {
					visit(m.Type, path+"."+m.Name)
				}
			}
		}
	}
	for _, r := range roots {
		rt := reflect.TypeOf(r)
		visit(rt, rt.String())
	}
}

// TestOptionConstructorsCompile exercises every exported option
// constructor, proving the whole configuration surface is reachable
// without naming any internal/... type.
func TestOptionConstructorsCompile(t *testing.T) {
	opts := []Option{
		WithExecutors(2),
		WithSampleSize(64),
		WithNullThreshold(0.5),
		WithNullOptimization(true),
		WithNullOptimization(false),
		WithLogicalOptimizations(true, true, false),
		WithoutLogicalOptimizations(),
		WithStageFusion(true),
		WithStageFusion(false),
		WithCompilerOptimizations(true),
		WithCompilerOptimizations(false),
		WithSeed(42),
		WithPartitionRows(1024),
		WithStreamingIngest(true),
		WithChunkSize(1 << 20),
		WithTracing(TraceRows),
	}
	csvOpts := []CSVOption{
		CSVHeader(true), CSVDelimiter(';'), CSVColumns("a", "b"),
		CSVNullValues("", "NA"), CSVData([]byte("a,b\n1,2\n")),
	}
	textOpts := []TextOption{TextData([]byte("x\n")), TextColumn("line")}

	c := NewContext(opts...)
	res, err := c.CSV("", csvOpts...).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res, err = c.Text("", textOpts...).Collect(); err != nil || len(res.Rows) != 1 {
		t.Fatalf("text: %v / %v", res, err)
	}
}
