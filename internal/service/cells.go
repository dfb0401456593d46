package service

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"strconv"

	"adnet/internal/expt"
)

// A sweep's log holds one record per finished cell, in canonical
// order: for an outcome cell its expt outcome record (AppendOutcome)
// with cellFromCache among the holder's flags, for an error cell a
// flags byte (cellError, cellFromCache), uvarint(len) and the error
// text. The cell's index, algorithm, workload, n, seed and max_rounds
// are not stored: they are the grid's cell at the record's position
// (SweepSpec.CellAt of the job's normalized spec). /cells renders each
// record as the jsonFrame of its SweepCell; Aggregate folds the
// records directly.
const (
	cellFromCache byte = 1 << iota
	cellError
)

// outcomeKeys are the keys of an Outcome's wire object, each with the
// punctuation before it, in Outcome.Fields order; the last four are
// omitted when zero and LeaderOK sits between the two groups.
var outcomeKeys = [13]string{`{"N":`, `,"Rounds":`, `,"LastActivity":`, `,"TotalActivations":`,
	`,"MaxActivatedEdges":`, `,"MaxActivatedDegree":`, `,"TotalMessages":`,
	`,"FinalDiameter":`, `,"FinalDepth":`,
	`,"EnvActivations":`, `,"EnvDeactivations":`, `,"Crashes":`, `,"Restarts":`}

// packError appends the record of an error cell with text to buf.
func packError(buf []byte, flags byte, text string) []byte {
	buf = append(buf, flags|cellError)
	buf = binary.AppendUvarint(buf, uint64(len(text)))
	return append(buf, text...)
}

// decodeCell decodes a record: its from_cache flag and either its
// outcome or its error text (non-empty exactly for an error cell).
func decodeCell(rec []byte) (fromCache bool, out expt.Outcome, errText string, err error) {
	if len(rec) == 0 || rec[0]&cellError == 0 {
		flags, out, err := expt.ReadOutcome(rec)
		return flags&cellFromCache != 0, out, "", err
	}
	n, w := binary.Uvarint(rec[1:])
	if w <= 0 || n == 0 || uint64(len(rec)-1-w) != n {
		return false, out, "", errors.New("service: cell record: bad error text")
	}
	return rec[0]&cellFromCache != 0, out, string(rec[1+w:]), nil
}

// renderCell is /cells: jsonFrame(SweepCell) of the record at position
// i of the job's log, with the grid's cell i filling in what the
// record does not store.
func (j *SweepJob) renderCell(buf, rec []byte, i int) []byte {
	fromCache, out, errText, err := decodeCell(rec)
	if err != nil {
		return appendError(buf, err)
	}
	c := j.grid.CellAt(i)
	buf = append(buf, `{"index":`...)
	buf = strconv.AppendInt(buf, int64(i), 10)
	buf = append(buf, `,"algorithm":`...)
	buf = appendJSONString(buf, c.Algorithm)
	buf = append(buf, `,"workload":`...)
	buf = appendJSONString(buf, c.Workload)
	buf = append(buf, `,"n":`...)
	buf = strconv.AppendInt(buf, int64(c.N), 10)
	buf = append(buf, `,"seed":`...)
	buf = strconv.AppendInt(buf, c.Seed, 10)
	if c.MaxRounds != 0 {
		buf = append(buf, `,"max_rounds":`...)
		buf = strconv.AppendInt(buf, int64(c.MaxRounds), 10)
	}
	buf = append(buf, `,"from_cache":`...)
	buf = strconv.AppendBool(buf, fromCache)
	if errText != "" {
		buf = append(buf, `,"error":`...)
		buf = appendJSONString(buf, errText)
		return append(buf, "}\n"...)
	}
	buf = append(buf, `,"outcome":`...)
	for k, f := range out.Fields() {
		if k == 9 {
			buf = append(buf, `,"LeaderOK":`...)
			buf = strconv.AppendBool(buf, out.LeaderOK)
		}
		if k < 9 || *f != 0 {
			buf = append(buf, outcomeKeys[k]...)
			buf = strconv.AppendInt(buf, int64(*f), 10)
		}
	}
	return append(buf, "}}\n"...)
}

// appendJSONString appends s as encoding/json writes a string: plain
// ASCII as it is, quoted; anything it would escape (quotes,
// backslashes, control bytes, <, > and &, U+2028/2029, invalid UTF-8)
// through json.Marshal itself. Registry names take the first path,
// error texts may take the second.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}
