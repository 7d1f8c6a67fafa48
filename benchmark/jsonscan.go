package main

import (
	"encoding/json"
	"errors"
	"fmt"
)

// scanJSON walks one JSON document in a single pass, far cheaper than
// decoding it: the load generator shares two cores with the server, so
// what it spends checking a 17 KB explanation it takes from the
// program it measures (the comment on client in run.go has the
// measurement). visit is called for every scalar with the depth
// of the container holding it (members of the root object are at depth
// 1; arrays count as containers and their elements carry the array's
// key), its key and its raw bytes. The returned FNV-1a hash covers the
// document without insignificant whitespace and without the value of
// any "cached" member, so a response served from a cache hashes equal
// to the one that was computed.
func scanJSON(b []byte, visit func(depth int, key, val []byte)) (uint64, error) {
	s := jsonScanner{b: b, h: 14695981039346656037, visit: visit}
	if err := s.value(0, nil); err != nil {
		return 0, err
	}
	s.ws()
	if s.i != len(b) {
		return 0, fmt.Errorf("trailing bytes after JSON document at offset %d", s.i)
	}
	return s.h, nil
}

type jsonScanner struct {
	b     []byte
	i     int
	h     uint64
	visit func(depth int, key, val []byte)
}

var errTruncatedJSON = errors.New("truncated JSON document")

func (s *jsonScanner) hash(p []byte) {
	h := s.h
	for _, c := range p {
		h = (h ^ uint64(c)) * 1099511628211
	}
	s.h = h
}

func (s *jsonScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\n', '\t', '\r':
			s.i++
		default:
			return
		}
	}
}

// str consumes a string token and returns it with its quotes.
func (s *jsonScanner) str() ([]byte, error) {
	start := s.i
	for s.i++; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case '\\':
			s.i++
		case '"':
			s.i++
			return s.b[start:s.i], nil
		}
	}
	return nil, errTruncatedJSON
}

func (s *jsonScanner) scalar(depth int, key []byte) error {
	var raw []byte
	if s.b[s.i] == '"' {
		var err error
		if raw, err = s.str(); err != nil {
			return err
		}
	} else {
		start := s.i
	loop:
		for ; s.i < len(s.b); s.i++ {
			switch s.b[s.i] {
			case ',', '}', ']', ' ', '\n', '\t', '\r':
				break loop
			}
		}
		if raw = s.b[start:s.i]; len(raw) == 0 {
			return fmt.Errorf("unexpected byte %q at offset %d", s.b[start], start)
		}
	}
	if string(key) != `"cached"` {
		s.hash(raw)
	}
	if s.visit != nil {
		s.visit(depth, key, raw)
	}
	return nil
}

func (s *jsonScanner) value(depth int, key []byte) error {
	s.ws()
	if s.i >= len(s.b) {
		return errTruncatedJSON
	}
	open := s.b[s.i]
	if open != '{' && open != '[' {
		return s.scalar(depth, key)
	}
	closer := open + 2 // '{'+2 == '}', '['+2 == ']'
	s.hash(s.b[s.i : s.i+1])
	s.i++
	for first := true; ; first = false {
		s.ws()
		if s.i >= len(s.b) {
			return errTruncatedJSON
		}
		if s.b[s.i] == closer {
			s.hash(s.b[s.i : s.i+1])
			s.i++
			return nil
		}
		if !first {
			if s.b[s.i] != ',' {
				return fmt.Errorf("expected ',' at offset %d", s.i)
			}
			s.hash(s.b[s.i : s.i+1])
			s.i++
			s.ws()
		}
		member := key
		if open == '{' {
			if s.i >= len(s.b) || s.b[s.i] != '"' {
				return fmt.Errorf("expected object key at offset %d", s.i)
			}
			var err error
			if member, err = s.str(); err != nil {
				return err
			}
			s.hash(member)
			s.ws()
			if s.i >= len(s.b) || s.b[s.i] != ':' {
				return fmt.Errorf("expected ':' at offset %d", s.i)
			}
			s.i++
		}
		if err := s.value(depth+1, member); err != nil {
			return err
		}
	}
}

// jsonText decodes a raw string token as delivered by scanJSON.
func jsonText(raw []byte) string {
	if len(raw) < 2 || raw[0] != '"' {
		return string(raw)
	}
	for _, c := range raw {
		if c == '\\' {
			var out string
			if json.Unmarshal(raw, &out) != nil {
				return string(raw)
			}
			return out
		}
	}
	return string(raw[1 : len(raw)-1])
}
