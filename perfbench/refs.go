package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/gotuplex/tuplex/internal/handopt"
)

// Output references. Each is computed from the generated inputs without
// the engine: handopt's hand-written pipelines for Zillow, weblogs, 311
// and Q6, and a plain-Go re-derivation for flights, which handopt does
// not cover.

// checkZillowCSV byte-compares the engine's CSV with handopt.ZillowCSV.
func checkZillowCSV(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("zillow csv differs from handopt.ZillowCSV at byte %d (got %d bytes, want %d)", i, len(got), len(want))
}

// anonShape canonicalizes an anonymized endpoint: the randomized
// "/~XXXXXXXXXX" user segment becomes "/~<anon>" when it is exactly ten
// letters A-Z; anything else is left as it is, so a wrong anonymization
// shows as a mismatch.
func anonShape(ep string) string {
	if !strings.HasPrefix(ep, "/~") {
		return ep
	}
	rest := ep[2:]
	i := strings.IndexByte(rest, '/')
	user := rest
	if i >= 0 {
		user = rest[:i]
	}
	if len(user) != 10 {
		return ep
	}
	for j := 0; j < len(user); j++ {
		if user[j] < 'A' || user[j] > 'Z' {
			return ep
		}
	}
	return "/~<anon>" + rest[len(user):]
}

// weblogWant renders handopt's weblog rows in the canonical line form
// weblogLine produces for engine rows.
func weblogWant(rows []handopt.WeblogRow) []string {
	out := make([]string, len(rows))
	for i, w := range rows {
		out[i] = fmt.Sprintf("%s|%s|%s|%s|%s|%d|%d", w.IP, w.Date, w.Method, anonShape(w.Endpoint),
			w.Protocol, w.ResponseCode, w.ContentSize)
	}
	return out
}

// weblogLine renders one output row (ip, date, method, endpoint,
// protocol, response_code, content_size). Integers may arrive as int64
// (engine rows) or float64 (decoded JSON); both print the same.
func weblogLine(r []any) string {
	if len(r) != 7 {
		return fmt.Sprintf("bad row width %d", len(r))
	}
	ep, _ := r[3].(string)
	return fmt.Sprintf("%v|%v|%v|%s|%v|%s|%s", r[0], r[1], r[2], anonShape(ep), r[4], intText(r[5]), intText(r[6]))
}

func intText(v any) string {
	switch x := v.(type) {
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1<<53 {
			return strconv.FormatInt(int64(x), 10)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	}
	return fmt.Sprint(v)
}

// checkLines compares two canonical row renderings in order.
func checkLines(what string, got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, reference has %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: row %d is %q, reference %q", what, i, got[i], want[i])
		}
	}
	return nil
}

// flightsChecked names the output columns the flights reference
// derives: every column of the pipeline's final projection, including
// the two airport left joins' coordinates and altitudes (nil where the
// probe misses), the general-path ActualElapsedTime of diverted flights
// and the int-cleaned delay columns.
var flightsChecked = []string{
	"CarrierName", "CarrierCode", "FlightNumber", "Day", "Month", "Year", "DayOfWeek",
	"OriginCity", "OriginState", "OriginAirportIATACode", "OriginLongitude", "OriginLatitude", "OriginAltitude",
	"DestCity", "DestState", "DestAirportIATACode", "DestLongitude", "DestLatitude", "DestAltitude",
	"Distance", "CancellationReason", "Cancelled", "Diverted", "CrsArrTime", "CrsDepTime",
	"ActualElapsedTime", "AirTime", "ArrDelay", "CarrierDelay", "CrsElapsedTime",
	"DepDelay", "LateAircraftDelay", "NasDelay", "SecurityDelay", "TaxiIn", "TaxiOut", "WeatherDelay",
	"AirlineYearFounded", "AirlineYearDefunct",
}

// flightsIntCleaned maps the output columns cleaned with
// `int(x) if x else 0` (ActualElapsedTime aside) to their perf columns.
var flightsIntCleaned = [][2]string{
	{"AirTime", "AIR_TIME"}, {"ArrDelay", "ARR_DELAY"}, {"CarrierDelay", "CARRIER_DELAY"},
	{"CrsElapsedTime", "CRS_ELAPSED_TIME"}, {"DepDelay", "DEP_DELAY"},
	{"LateAircraftDelay", "LATE_AIRCRAFT_DELAY"}, {"NasDelay", "NAS_DELAY"},
	{"SecurityDelay", "SECURITY_DELAY"}, {"TaxiIn", "TAXI_IN"}, {"TaxiOut", "TAXI_OUT"},
	{"WeatherDelay", "WEATHER_DELAY"},
}

// Column positions in the colon-delimited airport table
// (data.AirportColumns).
const (
	airportIATA         = 1
	airportAltitude     = 13
	airportLatDecimal   = 14
	airportLonDecimal   = 15
	airportColumnsCount = 16
)

// flightsWant derives every output row, in input order, from the raw
// perf, carrier and airport files: inner join on the carrier code, left
// joins on the origin and destination airports, the defunct-airline
// filter, and the rewrites of Appendix A.2.
func flightsWant(perf, carriers, airports []byte) ([]string, error) {
	crs, err := csv.NewReader(bytes.NewReader(carriers)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("flights reference: carriers: %w", err)
	}
	type carrier struct {
		name             string
		founded, defunct int
	}
	byCode := map[string]carrier{}
	for _, r := range crs[1:] {
		desc := r[1]
		open, dash, shut := strings.LastIndexByte(desc, '('), strings.LastIndexByte(desc, '-'), strings.LastIndexByte(desc, ')')
		name := strings.TrimSpace(desc[:open])
		for _, s := range []string{"Inc.", "LLC", "Co."} {
			name = strings.ReplaceAll(name, s, "")
		}
		c := carrier{name: strings.TrimSpace(name)}
		if c.founded, err = strconv.Atoi(strings.TrimSpace(desc[open+1 : dash])); err != nil {
			return nil, fmt.Errorf("flights reference: carrier %s: %w", r[0], err)
		}
		if dy := strings.TrimSpace(desc[dash+1 : shut]); dy != "" {
			if c.defunct, err = strconv.Atoi(dy); err != nil {
				return nil, fmt.Errorf("flights reference: carrier %s: %w", r[0], err)
			}
		}
		byCode[r[0]] = c
	}

	ard := csv.NewReader(bytes.NewReader(airports))
	ard.Comma = ':'
	ard.FieldsPerRecord = airportColumnsCount
	aps, err := ard.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("flights reference: airports: %w", err)
	}
	// byIATA holds a left join's output cells: longitude, latitude,
	// altitude. A code missing from the table is absent from the map.
	byIATA := map[string][3]any{}
	for _, r := range aps {
		num := func(s string) (any, error) {
			switch s {
			case "", "N/a", "N/A":
				return nil, nil
			}
			return strconv.ParseFloat(s, 64)
		}
		var cells [3]any
		for k, i := range []int{airportLonDecimal, airportLatDecimal, airportAltitude} {
			if cells[k], err = num(r[i]); err != nil {
				return nil, fmt.Errorf("flights reference: airport %s: %w", r[airportIATA], err)
			}
		}
		byIATA[r[airportIATA]] = cells
	}

	rd := csv.NewReader(bytes.NewReader(perf))
	rd.ReuseRecord = true
	hdr, err := rd.Read()
	if err != nil {
		return nil, fmt.Errorf("flights reference: header: %w", err)
	}
	col := map[string]int{}
	for i, h := range hdr {
		col[h] = i
	}
	var out []string
	row := map[string]any{}
	for {
		r, err := rd.Read()
		if err != nil {
			break
		}
		get := func(c string) string { return r[col[c]] }
		num := func(c string) float64 {
			f, _ := strconv.ParseFloat(get(c), 64)
			return f
		}
		c, ok := byCode[get("OP_UNIQUE_CARRIER")]
		if !ok {
			continue
		}
		year, _ := strconv.Atoi(get("YEAR"))
		if c.defunct != 0 && year >= c.defunct {
			continue
		}
		city := func(s string) (string, string) {
			i := strings.LastIndexByte(s, ',')
			return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1:])
		}
		row["CarrierName"], row["CarrierCode"], row["FlightNumber"] = c.name, get("OP_UNIQUE_CARRIER"), get("OP_CARRIER_FL_NUM")
		row["Day"], row["Month"], row["Year"], row["DayOfWeek"] = get("DAY_OF_MONTH"), get("MONTH"), get("YEAR"), get("DAY_OF_WEEK")
		for _, side := range []struct{ prefix, iata, city string }{
			{"Origin", "ORIGIN", "ORIGIN_CITY_NAME"}, {"Dest", "DEST", "DEST_CITY_NAME"},
		} {
			row[side.prefix+"City"], row[side.prefix+"State"] = city(get(side.city))
			row[side.prefix+"AirportIATACode"] = get(side.iata)
			ap := byIATA[get(side.iata)] // all nil on a miss
			row[side.prefix+"Longitude"], row[side.prefix+"Latitude"], row[side.prefix+"Altitude"] = ap[0], ap[1], ap[2]
		}
		row["Distance"] = num("DISTANCE") / 0.00062137119224
		diverted := num("DIVERTED") > 0
		reason := "None"
		switch get("CANCELLATION_CODE") {
		case "A":
			reason = "carrier"
		case "B":
			reason = "weather"
		case "C":
			reason = "national air system"
		case "D":
			reason = "security"
		}
		if diverted {
			reason = "diverted"
		}
		row["CancellationReason"], row["Cancelled"], row["Diverted"] = reason, num("CANCELLED") > 0, diverted
		hhmm := func(s string) any {
			x, _ := strconv.Atoi(s)
			if x == 0 {
				return nil
			}
			return fmt.Sprintf("%02d:%02d", x/100, x%100)
		}
		row["CrsArrTime"], row["CrsDepTime"] = hhmm(get("CRS_ARR_TIME")), hhmm(get("CRS_DEP_TIME"))
		// fillInTimesUDF, then `int(x) if x else 0`: a flight that
		// reached its destination after a diversion reports the
		// diverted elapsed time.
		elapsed := num("ACTUAL_ELAPSED_TIME")
		if get("DIV_REACHED_DEST") != "" && num("DIV_REACHED_DEST") > 0 {
			elapsed = num("DIV_ACTUAL_ELAPSED_TIME")
		}
		row["ActualElapsedTime"] = int64(elapsed)
		for _, ic := range flightsIntCleaned {
			row[ic[0]] = int64(num(ic[1])) // an empty cell parses as 0
		}
		row["AirlineYearFounded"] = int64(c.founded)
		row["AirlineYearDefunct"] = nil
		if c.defunct != 0 {
			row["AirlineYearDefunct"] = int64(c.defunct)
		}
		cells := make([]string, len(flightsChecked))
		for k, name := range flightsChecked {
			cells[k] = cellText(row[name])
		}
		out = append(out, strings.Join(cells, "|"))
	}
	return out, nil
}

// cellText renders one flights cell. Floats keep 12 significant digits,
// so the reference and the engine agree up to rounding in the last
// bits; whole numbers print as integers whatever their type.
func cellText(v any) string {
	switch x := v.(type) {
	case nil:
		return "<nil>"
	case bool:
		return strconv.FormatBool(x)
	case string:
		return x
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1<<53 {
			return strconv.FormatInt(int64(x), 10)
		}
		return strconv.FormatFloat(x, 'g', 12, 64)
	}
	return intText(v)
}

// flightsLines renders the checked columns of engine output rows.
func flightsLines(names []string, rows [][]any) ([]string, error) {
	idx := make([]int, len(flightsChecked))
	for i, c := range flightsChecked {
		idx[i] = -1
		for j, n := range names {
			if n == c {
				idx[i] = j
			}
		}
		if idx[i] < 0 {
			return nil, fmt.Errorf("flights output lacks column %s", c)
		}
	}
	out := make([]string, len(rows))
	cells := make([]string, len(idx))
	for i, r := range rows {
		for k, j := range idx {
			cells[k] = cellText(r[j])
		}
		out[i] = strings.Join(cells, "|")
	}
	return out, nil
}

// zipSet canonicalizes a 311 unique-zip result (order-free).
func zipSet(zips []string) string {
	s := append([]string(nil), zips...)
	sort.Strings(s)
	return strings.Join(s, ",")
}

// q6Matches compares aggregate revenues; the engine sums in a different
// order than handopt, so equality is up to float rounding.
func q6Matches(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}
