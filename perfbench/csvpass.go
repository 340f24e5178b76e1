package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/gotuplex/tuplex/internal/csvio"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/sample"
)

// csvPassResult is one standalone pass of the csvio layer over a file.
type csvPassResult struct {
	bytes     int64
	rows      int64
	excRows   int64
	splitTime time.Duration
	parseTime time.Duration
}

// csvioPass reads path, a comma-separated CSV with a header, the way
// streamed ingest does — ChunkReader.Next in chunkSize pieces, records
// split per chunk — and parses every record with ParseSpec.ParseLineVecs
// under the normal case sample.Sample infers from the file's first
// records. Split and parse are timed separately.
func csvioPass(path string, chunkSize int) (csvPassResult, error) {
	const delim = ','
	var r csvPassResult
	head, err := readPrefix(path, 1<<20)
	if err != nil {
		return r, err
	}
	recs := csvio.SplitRecords(head)
	if len(recs) < 2 {
		return r, fmt.Errorf("csvio pass: %s has no data records", path)
	}
	header := csvio.SplitCells(recs[0], delim, nil)
	plan, err := sample.Sample(recs[1:len(recs)-1], delim, header, sample.Config{})
	if err != nil {
		return r, fmt.Errorf("csvio pass: sampling %s: %w", path, err)
	}
	fields := make([]csvio.FieldSpec, plan.NumCols)
	for i := range fields {
		fields[i] = csvio.FieldSpec{Col: i, Type: plan.Schema.Col(i).Type}
	}
	spec := csvio.NewParseSpec(delim, plan.NumCols, fields, nil)
	vecs := spec.NewVecsFor()

	f, err := os.Open(path)
	if err != nil {
		return r, err
	}
	defer f.Close()
	cr := csvio.NewChunkReader(f, csvio.ChunkCSV, chunkSize, nil)
	first := true
	for {
		ts := time.Now()
		c, err := cr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return r, err
		}
		lines := csvio.SplitRecords(c.Data)
		if first && len(lines) > 0 {
			lines = lines[1:]
			first = false
		}
		tp := time.Now()
		r.splitTime += tp.Sub(ts)
		for _, line := range lines {
			if spec.ParseLineVecs(line, vecs) != pyvalue.ExcOK {
				r.excRows++
			}
			r.rows++
			if vecs[0].Len() >= 4096 {
				for _, v := range vecs {
					v.Reset()
				}
			}
		}
		r.parseTime += time.Since(tp)
		c.Release()
	}
	r.bytes = cr.BytesRead()
	return r, nil
}

func readPrefix(path string, n int) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, n)
	k, err := io.ReadFull(f, buf)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, err
	}
	return buf[:k], nil
}

// reportCSVPass runs the pass reps times and reports medians.
func reportCSVPass(b *bench, path string, chunkSize, reps int) error {
	var split, parse, exc []float64
	for i := 0; i < reps; i++ {
		r, err := csvioPass(path, chunkSize)
		if err != nil {
			return err
		}
		split = append(split, float64(r.bytes)/1e6/r.splitTime.Seconds())
		parse = append(parse, float64(r.rows)/r.parseTime.Seconds())
		exc = append(exc, ratio(float64(r.excRows), float64(r.rows)))
	}
	b.rep.set("csvio.split_mb_per_s", median(split), "MB/s").N = reps
	b.rep.set("csvio.parse_rows_per_s", median(parse), "1/s").N = reps
	b.rep.set("csvio.parse_exc_ratio", median(exc), "ratio").N = reps
	return nil
}
