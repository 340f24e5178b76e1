package core

import (
	"github.com/gotuplex/tuplex/internal/codegen"
	"github.com/gotuplex/tuplex/internal/csvio"
	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/logical"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

// compileAggregate compiles the aggregate UDF against the accumulator
// and row types, widening the accumulator type to a fixpoint (int
// accumulators often become floats after the first few rows, which the
// normal path must anticipate).
func (eng *engine) compileAggregate(cs *compiledStage, agg *logical.AggregateOp, schema *types.Schema) error {
	cs.aggInit = agg.Initial
	bu, err := compileBoxedUDF(agg.Agg)
	if err != nil {
		return err
	}
	var comb *boxedUDF
	if agg.Comb != nil {
		comb, err = compileBoxedUDF(agg.Comb)
		if err != nil {
			return err
		}
	}
	cs.combUDF = comb

	su := &stageUDF{spec: agg.Agg, boxed: bu}
	accT := typeOfBoxed(agg.Initial)
	rowT := types.Row(schema)
	if schema.Len() == 1 && len(agg.Agg.Access.ByName) == 0 {
		rowT = schema.Col(0).Type
		cs.aggScalar = true
	}
	globalTypes := map[string]types.Type{}
	for k, v := range agg.Agg.Globals {
		globalTypes[k] = typeOfBoxed(v)
	}
	for range 3 {
		info, err := inference.TypeFunction(agg.Agg.Fn, []types.Type{accT, rowT}, globalTypes, inference.Options{})
		if err != nil {
			break // wrong arity etc: boxed-only aggregation
		}
		if !info.Compilable() {
			break
		}
		ret := info.ReturnType
		if types.Equal(ret, accT) {
			u, cerr := codegen.Compile(info, agg.Agg.Globals, eng.opts.Codegen)
			if cerr == nil {
				su.compiled = u
			}
			break
		}
		widened := types.Unify(ret, accT)
		if types.Equal(widened, accT) || widened.Kind() == types.KindAny {
			break
		}
		accT = widened
	}
	su.frameIdx = cs.nUDFs - 1 // the frame slot reserved for the terminal
	cs.aggUDF = su
	cs.aggSlotType = accT
	return nil
}

// newCSVWriterFor returns a writer with the schema's header already
// written.
func newCSVWriterFor(schema *types.Schema) *csvio.Writer {
	w := csvio.NewWriter(',')
	if schema != nil {
		w.WriteHeader(schema.Names())
	}
	return w
}

// coerceSlot converts a slot to the widened accumulator type so the
// compiled aggregate's monomorphic code reads the right union member.
func coerceSlot(s rows.Slot, t types.Type) rows.Slot {
	switch t.Unwrap().Kind() {
	case types.KindF64:
		switch s.Tag {
		case types.KindI64:
			return rows.F64(float64(s.I))
		case types.KindBool:
			if s.B {
				return rows.F64(1)
			}
			return rows.F64(0)
		}
	case types.KindI64:
		if s.Tag == types.KindBool {
			if s.B {
				return rows.I64(1)
			}
			return rows.I64(0)
		}
	}
	return s
}
