package serve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"

	"rankedaccess/internal/engine"
	"rankedaccess/internal/lru"
)

// defaultMaxCursors bounds concurrently open server-side cursors; the
// least recently used cursor is evicted when a new one would exceed it
// (a cursor is one scan position — recreating an evicted one is a
// single POST).
const defaultMaxCursors = 1024

// serverCursor is one client-visible cursor: an opaque id bound to an
// engine cursor. Its mutex serializes concurrent /next calls on the
// same id (each call must observe and advance one scan position);
// distinct cursors never contend.
type serverCursor struct {
	id    string
	query string // registered query name, echoed in responses

	mu  sync.Mutex
	cur *engine.Cursor
}

// cursorStore issues and resolves opaque cursor tokens, keeping at most
// its capacity open by evicting the least recently used cursor.
type cursorStore struct {
	mu      sync.Mutex
	cursors *lru.Cache[string, *serverCursor]
}

func newCursorStore(max int) *cursorStore {
	if max <= 0 {
		max = defaultMaxCursors
	}
	return &cursorStore{cursors: lru.New[string, *serverCursor](max)}
}

// newToken returns an unguessable cursor id (a cursor grants read
// access to its query's answers, so ids must not be enumerable).
func newToken() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("serve: cursor token: %w", err)
	}
	return "c" + hex.EncodeToString(b[:]), nil
}

// create registers a cursor and returns it, evicting the least
// recently used cursor when the store is full.
func (cs *cursorStore) create(query string, cur *engine.Cursor) (*serverCursor, error) {
	id, err := newToken()
	if err != nil {
		return nil, err
	}
	sc := &serverCursor{id: id, query: query, cur: cur}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.cursors.Add(id, sc)
	return sc, nil
}

// get resolves an id, marking it recently used; nil when unknown (or
// already evicted/closed).
func (cs *cursorStore) get(id string) *serverCursor {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	sc, _ := cs.cursors.Get(id)
	return sc
}

// remove closes an id, reporting whether it was open.
func (cs *cursorStore) remove(id string) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.cursors.Remove(id)
}

// open returns the number of open cursors.
func (cs *cursorStore) open() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.cursors.Len()
}
