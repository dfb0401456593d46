package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"slices"
	"time"

	"adnet/internal/obs"
	"adnet/internal/service"
)

// client is one closed-loop load generator: one goroutine's HTTP
// client, holding a single keep-alive connection per server.
type client struct {
	http *http.Client
	buf  []byte
}

func newClient() *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		buf: make([]byte, 64<<10),
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// postJSON sends body and decodes the JSON answer into v, requiring
// one of the want statuses. It returns the bytes read.
func (c *client) postJSON(url string, body []byte, v any, want ...int) (n int, err error) {
	resp, err := c.http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return len(data), err
	}
	if !slices.Contains(want, resp.StatusCode) {
		return len(data), fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return len(data), json.Unmarshal(data, v)
}

// get fetches url and returns the body of its 200 answer.
func (c *client) get(url string) ([]byte, error) {
	resp, err := c.http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return data, err
	}
	if resp.StatusCode != http.StatusOK {
		return data, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// getJSON fetches url and decodes the answer into v. It returns the
// bytes read.
func (c *client) getJSON(url string, v any) (n int, err error) {
	data, err := c.get(url)
	if err != nil {
		return len(data), err
	}
	return len(data), json.Unmarshal(data, v)
}

// drained is what reading one NDJSON stream to EOF observed.
type drained struct {
	frames int
	bytes  int
	sum    uint32    // CRC-32C of every byte, to compare a replay with the first stream
	first  time.Time // when the first complete frame had been read
	last   time.Time // when EOF was read
}

// drain reads an NDJSON stream to EOF without decoding it: frames are
// counted by their newlines, so the generator spends its share of the
// box's two cores on the server's work, not on JSON.
func (c *client) drain(url string) (drained, error) {
	var d drained
	resp, err := c.http.Get(url)
	if err != nil {
		return d, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return d, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	for {
		n, err := resp.Body.Read(c.buf)
		if n > 0 {
			chunk := c.buf[:n]
			d.bytes += n
			d.sum = crc32.Update(d.sum, castagnoli, chunk)
			if k := bytes.Count(chunk, []byte{'\n'}); k > 0 {
				if d.frames == 0 {
					d.first = time.Now()
				}
				d.frames += k
			}
		}
		if err == io.EOF {
			d.last = time.Now()
			return d, nil
		}
		if err != nil {
			return d, fmt.Errorf("GET %s: %v", url, err)
		}
	}
}

// submitted is POST /v1/runs' answer.
type submitted struct {
	Job    service.JobStatus `json:"job"`
	Cached bool              `json:"cached"`
}

// cellLine is one line of GET /v1/sweeps/{id}/cells: a cell, or — when
// Done is set — the trailing summary.
type cellLine struct {
	service.SweepCell
	Done       *bool `json:"done"`
	Cells      int   `json:"cells"`
	ErrorCount int   `json:"errors"`
}

// cellStream is what reading one sweep's cell stream to EOF observed.
type cellStream struct {
	cells   []service.SweepCell
	summary *cellLine
	bytes   int
	first   time.Time // when the first cell line had been read
	last    time.Time
}

// drainCells reads a sweep's cell stream to EOF, decoding every line:
// the oracles need each cell's outcome.
func (c *client) drainCells(url string, expect int) (cellStream, error) {
	cs := cellStream{cells: make([]service.SweepCell, 0, expect)}
	resp, err := c.http.Get(url)
	if err != nil {
		return cs, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return cs, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			cs.bytes += len(line)
			var cl cellLine
			if jerr := json.Unmarshal(line, &cl); jerr != nil {
				return cs, fmt.Errorf("GET %s: bad line %q: %v", url, line, jerr)
			}
			if cl.Done != nil {
				cs.summary = &cl
			} else {
				if len(cs.cells) == 0 {
					cs.first = time.Now()
				}
				cs.cells = append(cs.cells, cl.SweepCell)
			}
		}
		if err == io.EOF {
			cs.last = time.Now()
			return cs, nil
		}
		if err != nil {
			return cs, fmt.Errorf("GET %s: %v", url, err)
		}
	}
}

// scrape fetches and parses a server's /metrics page, timing the
// request.
func (c *client) scrape(base string) (*obs.Metrics, time.Duration, int, error) {
	start := time.Now()
	data, err := c.get(base + "/metrics")
	took := time.Since(start)
	if err != nil {
		return nil, took, len(data), err
	}
	m, err := obs.ParseExposition(bytes.NewReader(data))
	return m, took, len(data), err
}
