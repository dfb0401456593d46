package service

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"adnet/internal/expt"
)

// A sweep's log holds one record per finished cell, in canonical
// order. The record is a flags byte (cellFromCache, cellError,
// cellLeaderOK), then for an outcome cell the integer fields of
// expt.Outcome as signed varints in field order — FinalDiameter and
// FinalDepth are -1 on a disconnected final graph — and for an error
// cell uvarint(len) and the error text. The cell's index, algorithm,
// workload, n, seed and max_rounds are not stored: they are the grid's
// cell at the record's position (SweepSpec.CellAt of the job's
// normalized spec). /cells renders each record as the jsonFrame of its
// SweepCell; Aggregate folds the records directly.
const (
	cellFromCache byte = 1 << iota
	cellError
	cellLeaderOK
)

// outcomeInts lists the integer fields of an expt.Outcome in record
// and wire order: the four omitempty ones, which follow LeaderOK on
// the wire, last.
func outcomeInts(o *expt.Outcome) [13]int {
	return [13]int{o.N, o.Rounds, o.LastActivity, o.TotalActivations,
		o.MaxActivatedEdges, o.MaxActivatedDegree, o.TotalMessages,
		o.FinalDiameter, o.FinalDepth,
		o.EnvActivations, o.EnvDeactivations, o.Crashes, o.Restarts}
}

// outcomeOf is the inverse of outcomeInts.
func outcomeOf(v [13]int, leaderOK bool) expt.Outcome {
	return expt.Outcome{N: v[0], Rounds: v[1], LastActivity: v[2], TotalActivations: v[3],
		MaxActivatedEdges: v[4], MaxActivatedDegree: v[5], TotalMessages: v[6],
		FinalDiameter: v[7], FinalDepth: v[8], LeaderOK: leaderOK,
		EnvActivations: v[9], EnvDeactivations: v[10], Crashes: v[11], Restarts: v[12]}
}

// outcomeKeys are the keys of an Outcome's wire object, each with the
// punctuation before it, in outcomeInts order; the last four are
// omitted when zero and LeaderOK sits between the two groups.
var outcomeKeys = [13]string{`{"N":`, `,"Rounds":`, `,"LastActivity":`, `,"TotalActivations":`,
	`,"MaxActivatedEdges":`, `,"MaxActivatedDegree":`, `,"TotalMessages":`,
	`,"FinalDiameter":`, `,"FinalDepth":`,
	`,"EnvActivations":`, `,"EnvDeactivations":`, `,"Crashes":`, `,"Restarts":`}

// packCell appends cell's record to buf. The cell must carry exactly
// one of an outcome and an error text (checkCell).
func packCell(buf []byte, cell SweepCell) []byte {
	var flags byte
	if cell.FromCache {
		flags |= cellFromCache
	}
	if cell.Error != "" {
		buf = append(buf, flags|cellError)
		buf = binary.AppendUvarint(buf, uint64(len(cell.Error)))
		return append(buf, cell.Error...)
	}
	if cell.Outcome.LeaderOK {
		flags |= cellLeaderOK
	}
	buf = append(buf, flags)
	for _, v := range outcomeInts(cell.Outcome) {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

// unpackCell decodes a record: its from_cache flag and either its
// outcome or its error text (non-empty exactly for an error cell).
func unpackCell(rec []byte) (fromCache bool, out expt.Outcome, errText string, err error) {
	if len(rec) == 0 {
		return false, out, "", errors.New("service: cell record: empty")
	}
	flags, rec := rec[0], rec[1:]
	fromCache = flags&cellFromCache != 0
	if flags&cellError != 0 {
		n, w := binary.Uvarint(rec)
		if w <= 0 || n == 0 || uint64(len(rec)-w) != n {
			return false, out, "", errors.New("service: cell record: bad error text")
		}
		return fromCache, out, string(rec[w:]), nil
	}
	var v [13]int
	for k := range v {
		x, w := binary.Varint(rec)
		if w <= 0 {
			return false, out, "", errors.New("service: cell record: truncated outcome")
		}
		v[k], rec = int(x), rec[w:]
	}
	if len(rec) != 0 {
		return false, out, "", fmt.Errorf("service: cell record: %d trailing bytes", len(rec))
	}
	return fromCache, outcomeOf(v, flags&cellLeaderOK != 0), "", nil
}

// checkCell reports whether cell is the grid's cell at index i and
// carries exactly one of an outcome and an error: what an executor
// must hand recordCell for position i. A coordinator's cells come from
// worker streams, so this is where a worker that answered for another
// cell is caught.
func checkCell(i int, grid expt.Cell, cell SweepCell) error {
	if cell.Index != i || cell.Algorithm != grid.Algorithm || cell.Workload != grid.Workload ||
		cell.N != grid.N || cell.Seed != grid.Seed || cell.MaxRounds != grid.MaxRounds {
		return fmt.Errorf("service: internal error: cell %d is (%d, %s, %s, n=%d, seed=%d, max_rounds=%d), the grid's is (%s, %s, n=%d, seed=%d, max_rounds=%d)",
			i, cell.Index, cell.Algorithm, cell.Workload, cell.N, cell.Seed, cell.MaxRounds,
			grid.Algorithm, grid.Workload, grid.N, grid.Seed, grid.MaxRounds)
	}
	if (cell.Error == "") == (cell.Outcome == nil) {
		return fmt.Errorf("service: internal error: cell %d needs exactly one of an outcome and an error", i)
	}
	return nil
}

// renderCell is /cells: jsonFrame(SweepCell) of the record at position
// i of the job's log, with the grid's cell i filling in what the
// record does not store.
func (j *SweepJob) renderCell(buf, rec []byte, i int) []byte {
	fromCache, out, errText, err := unpackCell(rec)
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
	for k, v := range outcomeInts(&out) {
		if k == 9 {
			buf = append(buf, `,"LeaderOK":`...)
			buf = strconv.AppendBool(buf, out.LeaderOK)
		}
		if k < 9 || v != 0 {
			buf = append(buf, outcomeKeys[k]...)
			buf = strconv.AppendInt(buf, int64(v), 10)
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
